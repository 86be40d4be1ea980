package information_test

import (
	"fmt"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/information/logstore"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
)

// TestWriteCountersAreSiteWide: a site numbers its writes with one counter
// across all its rows. Successive writes to different rows get strictly
// increasing counters; an update's counter exceeds both the site's mark and
// the row's own entry; and a durable site reopened after a close issues no
// counter at or below one it still holds.
func TestWriteCountersAreSiteWide(t *testing.T) {
	reg := information.NewSchemaRegistry()
	if err := reg.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	dir := t.TempDir()
	open := func() (*information.Space, *logstore.Store) {
		st, err := logstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return information.NewSpace(reg, nil, clk, information.WithSite("s0"), information.WithBackend(st)), st
	}

	sp, st := open()
	var last uint64
	var ids []string
	write := func(o *information.Object, err error) *information.Object {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		c := o.VV.Counter("s0")
		if c <= last {
			t.Fatalf("write to %s took counter %d after %d", o.ID, c, last)
		}
		if o.Version != o.VV.Sum() {
			t.Fatalf("%s: version %d, vector sum %d", o.ID, o.Version, o.VV.Sum())
		}
		last = c
		return o
	}
	for i := 0; i < 5; i++ {
		ids = append(ids, write(sp.Put("u", "doc", map[string]string{"title": fmt.Sprint("doc ", i)})).ID)
	}

	// An update of the first row: its own entry is 1, the site's mark 5.
	cur, err := sp.Get("u", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	mark := sp.Tree().Top("s0")
	upd := write(sp.Update("u", ids[0], cur.Version, map[string]string{"title": "edited"}))
	if c := upd.VV.Counter("s0"); c <= mark || c <= cur.VV.Counter("s0") {
		t.Fatalf("update took counter %d: mark %d, row's own entry %d", c, mark, cur.VV.Counter("s0"))
	}
	if upd.Version <= cur.Version {
		t.Fatalf("update moved the version from %d to %d", cur.Version, upd.Version)
	}
	// A row another site wrote: the update adds the site's next number.
	remote := &information.Object{ID: "remote-1", Schema: "doc", Fields: map[string]string{"title": "theirs"},
		VV: vclock.Version{"s1": 40}, Site: "s1", Created: clk.Now(), Updated: clk.Now()}
	if _, _, err := sp.ApplyRemote(remote); err != nil {
		t.Fatal(err)
	}
	cur, _ = sp.Get("u", remote.ID)
	write(sp.Update("u", remote.ID, cur.Version, map[string]string{"title": "ours"}))

	held := func(sp *information.Space) uint64 {
		var top uint64
		sp.Range(func(o *information.Object) bool {
			top = max(top, o.VV.Counter("s0"))
			return true
		})
		return top
	}
	if h := held(sp); h != last {
		t.Fatalf("the site holds counter %d, last issued %d", h, last)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	sp, st = open()
	defer st.Close()
	if h := held(sp); h != last {
		t.Fatalf("reopened site holds counter %d, want %d", h, last)
	}
	write(sp.Put("u", "doc", map[string]string{"title": "after reopen"}))
	cur, _ = sp.Get("u", ids[2])
	write(sp.Update("u", ids[2], cur.Version, map[string]string{"title": "after reopen"}))
}

// TestCommittedRowVersionIsVectorSum: every row a Space commits — by Put,
// by Update, by Adopt of an unknown or a causally newer row, or by the
// last-writer-wins merge of a concurrent one, whichever side wins — has a
// Version equal to its vector's sum, on both backends. The row codec is
// built on that rule: a row's Version is derived data, which a decoder
// can set from the vector it reads.
func TestCommittedRowVersionIsVectorSum(t *testing.T) {
	reg := information.NewSchemaRegistry()
	if err := reg.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	// wireRow is a row as a peer receives it: encoded and decoded.
	wireRow := func(o *information.Object) *information.Object {
		t.Helper()
		got, _, err := information.DecodeObject(information.AppendObject(nil, o))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			clk := vclock.NewSimulated(netsim.DefaultEpoch)
			opts := []information.SpaceOption{information.WithSite("s0")}
			if durable {
				st, err := logstore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				opts = append(opts, information.WithBackend(st))
			}
			sp := information.NewSpace(reg, nil, clk, opts...)
			check := func(what string, o *information.Object) {
				t.Helper()
				if o.Version != o.VV.Sum() {
					t.Fatalf("%s: %s at version %d, vector %v sums to %d", what, o.ID, o.Version, o.VV, o.VV.Sum())
				}
			}
			events := 0
			sp.Subscribe("doc", func(ev information.Event) {
				events++
				check(ev.Kind+" event", ev.Object)
			})
			must := func(o *information.Object, err error) *information.Object {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				return o
			}

			a := must(sp.Put("u", "doc", map[string]string{"title": "a"}))
			check("put", a)
			clk.Advance(time.Second)
			check("update", must(sp.Update("u", a.ID, a.Version, map[string]string{"title": "a2"})))

			remote := func(vv vclock.Version, title string) *information.Object {
				clk.Advance(time.Second)
				return wireRow(&information.Object{ID: "r1", Schema: "doc", Owner: "u", Site: "s1",
					Fields: map[string]string{"title": title}, Version: vv.Sum(), VV: vv,
					Created: netsim.DefaultEpoch, Updated: clk.Now()})
			}
			adopt := func(what string, row *information.Object, wantConflict bool) {
				t.Helper()
				changed, conflict, err := sp.Adopt(row)
				if err != nil || !changed || conflict != wantConflict {
					t.Fatalf("%s: changed %v conflict %v err %v", what, changed, conflict, err)
				}
			}
			adopt("unknown row", remote(vclock.Version{"s1": 40}, "theirs"), false)
			adopt("newer row", remote(vclock.Version{"s1": 41}, "theirs, again"), false)
			cur := must(sp.Get("u", "r1"))
			check("update of an adopted row", must(sp.Update("u", "r1", cur.Version, map[string]string{"title": "ours"})))
			// Concurrent with the local update and later: the remote side wins.
			adopt("concurrent row, remote wins", remote(vclock.Version{"s1": 42}, "theirs wins"), true)
			// Concurrent again, but stamped before the local row: the local side wins.
			cur = must(sp.Get("u", "r1"))
			check("update after a merge", must(sp.Update("u", "r1", cur.Version, map[string]string{"title": "ours wins"})))
			late := remote(vclock.Version{"s1": 43}, "theirs loses")
			late.Updated = netsim.DefaultEpoch
			adopt("concurrent row, local wins", late, true)

			// A row built by hand with a Version of its own is adopted at
			// its vector's sum, as the decoder would have read it.
			adopt("hand-built row", &information.Object{ID: "r2", Schema: "doc", Owner: "u", Site: "s2",
				Fields: map[string]string{"title": "by hand"}, Version: 1, VV: vclock.Version{"s2": 5},
				Created: clk.Now(), Updated: clk.Now()}, false)

			n := 0
			sp.Range(func(o *information.Object) bool {
				n++
				check("stored", o)
				return true
			})
			if n != 3 || events < 9 {
				t.Fatalf("%d rows stored, %d events seen", n, events)
			}
		})
	}
}
