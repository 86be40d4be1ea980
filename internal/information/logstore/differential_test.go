package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// information.Store is the specification of logstore.Store: the tests in
// this file drive both from one byte script and require the same answers
// after every step, and that no row either backend ever lent has changed by
// the end.

// The schemas the tests' rows name, registered before any test runs:
// "doc" as every test of the module declares it, so a row whose keys are
// only title and body names it by id and any other spells it, and the
// interchange schema as the deployment registers it.
func init() {
	text := func(name string, required bool) information.Field {
		return information.Field{Name: name, Type: information.FieldText, Required: required}
	}
	for _, s := range []information.Schema{
		{Name: "mocca-interchange", Fields: []information.Field{text("title", true), text("body", false), text("author", false), text("context", false)}},
		{Name: "doc", Fields: []information.Field{text("title", true), text("body", false)}},
	} {
		if err := information.NewSchemaRegistry().Register(s); err != nil {
			panic(err)
		}
	}
}

var (
	diffIDs    = []string{"a", "b", "b0", "c", "d", "e", "f", "g", "h", "k00", "k01", "m", "zz"}
	diffGhosts = []string{"", "a0", "ghost", "zzz"} // never written
	diffSites  = []string{"gmd", "upc", "nott", "a-site-with-a-rather-long-name"}
	diffKeys   = []string{"title", "body", "", "k3", "k4", "k5", "k6", "k7", "k8"}
	diffValues = []string{"", "v", "rev", "a longer value, to move record sizes about", "\x00\xff"}
	errScript  = errors.New("scripted callback failure")
)

// script feeds bytes to the interpreter; an exhausted script reads zeros, so
// every prefix of a script is a script.
type script struct {
	b []byte
	i int
}

func (s *script) next(n int) int {
	v := 0
	if s.i < len(s.b) {
		v = int(s.b[s.i])
		s.i++
	}
	return v % n
}

func (s *script) done() bool { return s.i >= len(s.b) }

// id draws an id: mostly one the script writes, sometimes one it never does.
func (s *script) id() string {
	if s.next(8) == 0 {
		return diffGhosts[s.next(len(diffGhosts))]
	}
	return diffIDs[s.next(len(diffIDs))]
}

// lentRows remembers every row a backend lent and what it encoded to at
// that moment.
type lentRows map[*information.Object][]byte

func (l lentRows) note(o *information.Object) {
	if o == nil {
		return
	}
	if _, seen := l[o]; !seen {
		l[o] = information.AppendObject(nil, o)
	}
}

func (l lentRows) check(t *testing.T, backend string) {
	t.Helper()
	for o, was := range l {
		if now := information.AppendObject(nil, o); !bytes.Equal(now, was) {
			t.Fatalf("%s: a lent row changed after it was lent:\n was %q\n now %q", backend, was, now)
		}
	}
}

// differ holds the two backends a script drives.
type differ struct {
	t       *testing.T
	dir     string
	opts    []Option
	reader  func(*Store) (stop func()) // optional: readers beside the writer
	quiesce func()                     // stops the readers of the open store
	st      *Store
	ref     *information.Store
	history []*information.Object // every row stored, in order: the reference's rebuild after a torn tail
	lentSt  lentRows
	lentRef lentRows
	stamp   int
	step    int
	what    string // the step being checked, for failure messages
}

func enc(o *information.Object) []byte {
	if o == nil {
		return nil
	}
	return information.AppendObject(nil, o)
}

func (d *differ) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d (%s): %s", d.step, d.what, fmt.Sprintf(format, args...))
}

// sameRow requires two rows to be equal, or absent together: their
// encodings, and their Versions, which the encoding leaves out.
func (d *differ) sameRow(what string, got, want *information.Object) {
	d.t.Helper()
	if (got == nil) != (want == nil) || !bytes.Equal(enc(got), enc(want)) {
		d.fatalf("%s: logstore %q, reference %q", what, enc(got), enc(want))
	}
	if got != nil && got.Version != want.Version {
		d.fatalf("%s: logstore at version %d, reference at %d", what, got.Version, want.Version)
	}
}

// scribble edits a row the contract says is the caller's own copy.
func scribble(o *information.Object) {
	if o == nil {
		return
	}
	o.Owner = "scribbled"
	o.VV = o.VV.Tick("scribble")
	if o.Fields != nil {
		o.Fields["scribble"] = "x"
	}
}

// nextRow builds the row an Exec stores in place of cur. Everything drawn
// from the script is drawn by the caller, so both backends' callbacks build
// equal rows from equal arguments; each builds its own, as the contract
// gives the returned row up.
func nextRow(id string, cur *information.Object, site string, fields map[string]string, extraSites int, stamp int) *information.Object {
	next := &information.Object{ID: id, Schema: "doc", Owner: "ada", Created: t0}
	if cur != nil {
		*next = *cur
	}
	next.Fields = make(map[string]string, len(fields))
	for k, v := range fields {
		next.Fields[k] = v
	}
	if len(fields) == 0 && stamp%2 == 0 {
		next.Fields = nil
	}
	var vv vclock.Version
	if cur != nil {
		vv = cur.VV.Clone()
	}
	next.VV = vv.Tick(site)
	for i := 0; i < extraSites; i++ {
		next.VV = next.VV.Tick(fmt.Sprintf("site-%02d", i))
	}
	next.Version = next.VV.Sum()
	next.Site = site
	next.Updated = t0.Add(time.Duration(stamp) * time.Second)
	return next
}

func (d *differ) exec(s *script) {
	id := s.id()
	outcome := s.next(8) // 0 store nothing, 1 callback error, else store
	site := diffSites[s.next(len(diffSites))]
	fields := map[string]string{}
	for n := s.next(5); n > 0; n-- {
		fields[diffKeys[s.next(len(diffKeys))]] = diffValues[s.next(len(diffValues))]
	}
	if s.next(16) == 0 {
		for _, k := range diffKeys {
			fields[k] = diffValues[s.next(len(diffValues))]
		}
	}
	extraSites := 0
	if s.next(16) == 0 {
		extraSites = 17
	}
	d.execWith(id, outcome, site, fields, extraSites)
}

// execWith runs one Exec on both backends: outcome 0 stores nothing, 1 fails
// in the callback, anything else stores nextRow.
func (d *differ) execWith(id string, outcome int, site string, fields map[string]string, extraSites int) {
	d.stamp++
	stamp := d.stamp
	d.what = fmt.Sprintf("Exec %q outcome %d", id, outcome)

	var curSt, curRef []byte // the argument as lent; nil when absent
	callback := func(lent lentRows, seen *[]byte) func(*information.Object) (*information.Object, error) {
		return func(cur *information.Object) (*information.Object, error) {
			lent.note(cur)
			*seen = enc(cur)
			switch outcome {
			case 0:
				return nil, nil
			case 1:
				return nil, errScript
			}
			return nextRow(id, cur, site, fields, extraSites, stamp), nil
		}
	}
	gotSt, errSt := d.st.Exec(id, callback(d.lentSt, &curSt))
	gotRef, errRef := d.ref.Exec(id, callback(d.lentRef, &curRef))
	if (curSt == nil) != (curRef == nil) || !bytes.Equal(curSt, curRef) {
		d.fatalf("callback argument: logstore %q, reference %q", curSt, curRef)
	}
	if (errSt == nil) != (errRef == nil) || errors.Is(errSt, errScript) != errors.Is(errRef, errScript) {
		d.fatalf("logstore err %v, reference err %v", errSt, errRef)
	}
	d.sameRow("result", gotSt, gotRef)
	d.lentSt.note(gotSt)
	d.lentRef.note(gotRef)
	if gotRef != nil {
		d.history = append(d.history, gotRef)
	}
}

func (d *differ) pointRead(s *script) {
	id := s.id()
	d.what = fmt.Sprintf("Get+Peek %q", id)
	gotSt, okSt := d.st.Get(id)
	gotRef, okRef := d.ref.Get(id)
	if okSt != okRef {
		d.fatalf("Get: logstore %v, reference %v", okSt, okRef)
	}
	d.sameRow("Get", gotSt, gotRef)
	scribble(gotSt)
	scribble(gotRef)
	gotSt, okSt = d.st.Peek(id)
	gotRef, okRef = d.ref.Peek(id)
	if okSt != okRef {
		d.fatalf("Peek: logstore %v, reference %v", okSt, okRef)
	}
	d.sameRow("Peek", gotSt, gotRef)
	d.lentSt.note(gotSt)
	d.lentRef.note(gotRef)
}

// rangeRows collects what Range hands out, stopping after limit rows
// (limit < 0: never), sorted by id.
func rangeRows(b information.Backend, lent lentRows, limit int) []*information.Object {
	var out []*information.Object
	if limit == 0 {
		return out
	}
	b.Range(func(o *information.Object) bool {
		lent.note(o)
		out = append(out, o)
		return len(out) != limit
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (d *differ) ranges(s *script) {
	d.what = "Range"
	d.sameRows("Range", rangeRows(d.st, d.lentSt, -1), rangeRows(d.ref, d.lentRef, -1))
	limit := 1 + s.next(4)
	d.what = fmt.Sprintf("Range stopped after %d", limit)
	got := rangeRows(d.st, d.lentSt, limit)
	if want := min(limit, d.ref.Len()); len(got) != want {
		d.fatalf("%d rows, want %d", len(got), want)
	}
	for i, o := range got {
		// Which rows an early stop sees is the backend's business; that each
		// is the stored row, and none comes twice, is not.
		if i > 0 && got[i-1].ID == o.ID {
			d.fatalf("row %q twice", o.ID)
		}
		want, _ := d.ref.Peek(o.ID)
		d.sameRow("row "+o.ID, o, want)
	}
}

func (d *differ) sameRows(what string, got, want []*information.Object) {
	d.t.Helper()
	if len(got) != len(want) {
		d.fatalf("%s: logstore has %d rows, reference %d", what, len(got), len(want))
	}
	for i := range got {
		d.sameRow(fmt.Sprintf("%s row %d", what, i), got[i], want[i])
	}
}

// agree is the comparison made after every step: Len, Digest, the id-sorted
// Range, and no counted read failure. The digests are the caller's, so
// they are scribbled on; the rows are lent, so they are noted.
func (d *differ) agree() {
	d.t.Helper()
	if got, want := d.st.Len(), d.ref.Len(); got != want {
		d.fatalf("Len: logstore %d, reference %d", got, want)
	}
	got, want := d.st.Digest(), d.ref.Digest()
	if len(got) != len(want) {
		d.fatalf("Digest: logstore has %d ids, reference %d", len(got), len(want))
	}
	for id, vv := range want {
		gv, ok := got[id]
		if !ok || !bytes.Equal(gv.AppendBinary(nil), vv.AppendBinary(nil)) {
			d.fatalf("Digest[%q]: logstore %v (held %v), reference %v", id, gv, ok, vv)
		}
		got[id] = gv.Tick("scribble")
		want[id] = vv.Tick("scribble")
	}
	d.sameRows("Range", rangeRows(d.st, d.lentSt, -1), rangeRows(d.ref, d.lentRef, -1))
	if st := d.st.Stats(); st.IterationFailures+st.SegmentReadFailures+st.CompactionFailures != 0 {
		d.fatalf("store counted failures: %+v", st)
	}
}

func (d *differ) open() {
	d.t.Helper()
	st, err := Open(d.dir, d.opts...)
	if err != nil {
		d.fatalf("Open: %v", err)
	}
	d.st = st
	d.quiesce = func() {}
	if d.reader != nil {
		d.quiesce = d.reader(st)
	}
}

func (d *differ) close() {
	d.t.Helper()
	d.quiesce()
	if err := d.st.Close(); err != nil {
		d.fatalf("Close: %v", err)
	}
}

func (d *differ) reopen() {
	d.what = "Close+Open"
	d.close()
	d.open()
}

// mergeDue runs the level merges the background merger would: every level
// holding at least the fanout, lowest first, until none does. Upper levels
// stay in place, so superseded versions meet them later.
func (d *differ) mergeDue() {
	d.what = "merge of the over-full levels"
	d.st.mergeMu.Lock()
	defer d.st.mergeMu.Unlock()
	for d.st.mergeOnce() {
	}
}

// tornReopen closes the store, cuts into the WAL's last record and reopens.
// Recovery must drop exactly that record, so the reference is rebuilt from
// the history less its last mutation. With an empty WAL (a flush has just
// covered everything) nothing is lost.
func (d *differ) tornReopen(s *script) {
	d.what = "torn-tail reopen"
	d.close()
	path := filepath.Join(d.dir, walName)
	info, err := os.Stat(path)
	if err != nil {
		d.fatalf("%v", err)
	}
	torn := info.Size() > 0
	if torn {
		// Every record is longer than its framing, so a cut this short
		// lands inside the last one.
		if err := os.Truncate(path, info.Size()-int64(1+s.next(10))); err != nil {
			d.fatalf("%v", err)
		}
	}
	d.open()
	if got := d.st.Stats().DiscardedBytes > 0; got != torn {
		d.fatalf("recovery discarded bytes: %v, WAL torn: %v", got, torn)
	}
	if !torn {
		return
	}
	d.history = d.history[:len(d.history)-1]
	d.ref = information.NewStore()
	for _, row := range d.history {
		if _, err := d.ref.Exec(row.ID, func(*information.Object) (*information.Object, error) { return row, nil }); err != nil {
			d.fatalf("rebuilding the reference: %v", err)
		}
	}
}

// runStoreScript interprets one script against a fresh pair of backends.
// reader, when set, runs beside the writer whenever the store is open.
func runStoreScript(t *testing.T, data []byte, bgMerge bool, reader func(*Store) (stop func())) {
	t.Helper()
	d := &differ{
		t: t, dir: t.TempDir(), ref: information.NewStore(), reader: reader,
		opts:   []Option{WithCompactEvery(8), WithMergeFanout(2), WithBackgroundMerge(bgMerge)},
		lentSt: lentRows{}, lentRef: lentRows{},
	}
	d.open()
	defer func() { d.close() }()
	s := &script{b: data}
	for d.step = 0; d.step == 0 || !s.done(); d.step++ {
		switch op := s.next(32); {
		case op < 17:
			d.exec(s)
		case op < 24:
			d.pointRead(s)
		case op < 27:
			d.ranges(s)
		case op < 28:
			d.what = "Compact"
			if err := d.st.Compact(); err != nil {
				d.fatalf("%v", err)
			}
		case op < 29:
			d.reopen()
		case op < 30:
			d.tornReopen(s)
		case op < 31:
			// A burst of overwrites of one hot id: versions of it pile up
			// across the levels.
			id, site := diffIDs[s.next(2)], diffSites[s.next(len(diffSites))]
			for n := 3 + s.next(6); n > 0; n-- {
				d.execWith(id, 2, site, map[string]string{"body": diffValues[n%len(diffValues)]}, 0)
				d.agree()
			}
		default:
			d.mergeDue()
		}
		d.agree()
		// Without the background merger only the script merges; keep a
		// script that never does from scanning hundreds of segments a step.
		if !bgMerge && d.st.Stats().Segments >= 8 {
			d.mergeDue()
			d.agree()
		}
	}
	d.lentSt.check(t, "logstore")
	d.lentRef.check(t, "information.Store")
}

func seededScript(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestLogstoreMatchesStore(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runStoreScript(t, seededScript(seed, 1200), false, nil)
		})
	}
	// The background merger on, and readers beside the writer: a Range that
	// reads every byte of every row it is lent, and point reads that go to
	// the segments. Which merges have run by a given step is now up to the
	// scheduler; the answers are not.
	for seed := int64(101); seed <= 104; seed++ {
		t.Run(fmt.Sprintf("background-merge/seed%d", seed), func(t *testing.T) {
			runStoreScript(t, seededScript(seed, 1200), true, func(st *Store) func() {
				quit := make(chan struct{})
				var wg sync.WaitGroup
				for r := 0; r < 3; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-quit:
								return
							default:
							}
							st.Range(func(o *information.Object) bool {
								if _, _, err := information.DecodeObject(enc(o)); err != nil {
									t.Errorf("Range lent a row that does not round-trip: %v", err)
								}
								return true
							})
							for _, id := range diffIDs {
								if o, ok := st.Get(id); ok && o.ID != id {
									t.Errorf("Get(%q) returned row %q", id, o.ID)
								}
							}
						}
					}()
				}
				return func() { close(quit); wg.Wait() }
			})
		})
	}
}

func FuzzLogstoreMatchesStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("script longer than any the seeds need")
		}
		runStoreScript(t, data, false, nil)
	})
}
