package mocca

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mocca/internal/information"
	"mocca/internal/netsim"
)

// The reference model of a deployment's information state: what each
// site holds, derived from the op history alone. Rows merge by vector
// max; concurrent rows resolve by site-ordered last-writer-wins. The
// model has no clock and no network: a write's timestamp is an input,
// and propagation is "every live site of one partition component holds
// the merge of what they all hold" — applied after each op has drained.

// modelRow is one row as the model holds it.
type modelRow struct {
	fields           map[string]string
	vv               map[string]uint64
	site             string
	created, updated time.Time
}

// vvLeq reports whether every entry of a is at most b's.
func vvLeq(a, b map[string]uint64) bool {
	for s, n := range a {
		if n > b[s] {
			return false
		}
	}
	return true
}

// mergeRows is the model's merge: the dominating row wins; concurrent
// rows go to the later write, the higher site name on a tie, with the
// vectors merged and Created the earlier of the two.
func mergeRows(a, b modelRow) modelRow {
	switch {
	case vvLeq(b.vv, a.vv):
		return a
	case vvLeq(a.vv, b.vv):
		if a.created.Before(b.created) {
			b.created = a.created
		}
		return b
	}
	win := a
	if b.updated.After(a.updated) || (b.updated.Equal(a.updated) && b.site > a.site) {
		win = b
	}
	win.vv = maps.Clone(a.vv)
	for s, n := range b.vv {
		win.vv[s] = max(win.vv[s], n)
	}
	win.created = a.created
	if b.created.Before(win.created) {
		win.created = b.created
	}
	return win
}

func vvSum(vv map[string]uint64) uint64 {
	var n uint64
	for _, c := range vv {
		n += c
	}
	return n
}

// model is the reference state of n sites: what each holds, which are
// down, and — for a durable deployment — what each had acked when it
// went down (every completed write reaches the log before it returns).
type model struct {
	durable bool
	held    []map[string]modelRow
	down    []bool
	acked   []map[string]modelRow
	group   []int // partition component of each site; all 0 when healed
}

func newModel(n int, durable bool) *model {
	m := &model{durable: durable, held: make([]map[string]modelRow, n),
		down: make([]bool, n), acked: make([]map[string]modelRow, n), group: make([]int, n)}
	for i := range m.held {
		m.held[i] = map[string]modelRow{}
	}
	return m
}

// write records a local write at site i.
func (m *model) write(i int, id string, r modelRow) { m.held[i][id] = r }

// crash freezes site i; a durable site keeps what it acked.
func (m *model) crash(i int) {
	m.down[i] = true
	if m.durable {
		m.acked[i] = maps.Clone(m.held[i])
	}
}

// restart brings site i back with what its store kept: its acked set, or
// nothing in memory.
func (m *model) restart(i int) {
	m.down[i] = false
	m.held[i] = map[string]modelRow{}
	if m.durable {
		m.held[i] = maps.Clone(m.acked[i])
	}
}

// propagate is quiescence: every partition component's live sites hold
// the merge of what they hold.
func (m *model) propagate() {
	for g := range slices.Max(m.group) + 1 {
		merged := map[string]modelRow{}
		var members []int
		for i, held := range m.held {
			if m.down[i] || m.group[i] != g {
				continue
			}
			members = append(members, i)
			for id, r := range held {
				if cur, ok := merged[id]; ok {
					r = mergeRows(cur, r)
				}
				merged[id] = r
			}
		}
		for _, i := range members {
			m.held[i] = maps.Clone(merged)
		}
	}
}

// ids lists what site i holds, sorted.
func (m *model) ids(i int) []string {
	return slices.Sorted(maps.Keys(m.held[i]))
}

// siteRows reads a site's replica in the model's terms.
func siteRows(s *Site) map[string]modelRow {
	out := map[string]modelRow{}
	s.Space().Range(func(o *information.Object) bool {
		out[o.ID] = modelRow{fields: o.Fields, vv: o.VV, site: o.Site, created: o.Created, updated: o.Updated}
		return true
	})
	return out
}

// diffRows names the first difference between what a site holds and
// what the model says it holds.
func diffRows(got, want map[string]modelRow) string {
	for _, id := range slices.Sorted(maps.Keys(want)) {
		g, ok := got[id]
		w := want[id]
		switch {
		case !ok:
			return fmt.Sprintf("%s missing (model: %v %v)", id, w.vv, w.fields)
		case !maps.Equal(g.vv, w.vv) || !maps.Equal(g.fields, w.fields) || g.site != w.site:
			return fmt.Sprintf("%s is %v %v by %s, model %v %v by %s", id, g.vv, g.fields, g.site, w.vv, w.fields, w.site)
		case !g.created.Equal(w.created) || !g.updated.Equal(w.updated):
			return fmt.Sprintf("%s timestamps %v/%v, model %v/%v", id, g.created, g.updated, w.created, w.updated)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			return fmt.Sprintf("%s held but not in the model", id)
		}
	}
	return ""
}

// runModelScript drives a deployment and the model with one byte script.
// The first byte picks the deployment: bit 0 the overlay, bit 1 the
// durable store, bit 2 a fourth site. Each later pair of bytes is an op
// and its argument; every op drains the network before the next. After
// the script, every site restarts, the network heals, and every site's
// rows and digest must equal the model's.
func runModelScript(t *testing.T, script []byte) {
	if len(script) == 0 {
		return
	}
	cfg, script := script[0], script[1:]
	if len(script) > 64 {
		script = script[:64]
	}
	n := 3 + int(cfg>>2&1)
	opts := []Option{WithSeed(int64(cfg) + 1)}
	if cfg&1 != 0 {
		opts = append(opts, WithGossip())
	}
	dir := ""
	if cfg&2 != 0 {
		dir = t.TempDir()
		opts = append(opts, WithDurableStore(dir))
	}
	dep := NewDeployment(opts...)
	sites := make([]*Site, n)
	for i := range sites {
		name := fmt.Sprintf("s%d", i)
		sites[i] = dep.AddSite(name, name+".org")
	}
	// A crash is what releases a site's store: each run must give back
	// its files.
	t.Cleanup(func() {
		for _, s := range sites {
			s.Crash()
		}
	})
	dep.Run()
	m := newModel(n, dir != "")
	now := func() time.Time { return dep.Clock().Now() }

	update := func(i int, id string) {
		cur := m.held[i][id]
		fields := map[string]string{"title": fmt.Sprintf("%s@%s:%d", id, sites[i].Name, vvSum(cur.vv)+1)}
		want := modelRow{fields: fields, vv: maps.Clone(cur.vv), site: sites[i].Name, created: cur.created, updated: now()}
		want.vv[sites[i].Name]++
		got, err := sites[i].Space().Update("user", id, vvSum(cur.vv), fields)
		if err != nil {
			t.Fatalf("update %s at %s: %v", id, sites[i].Name, err)
		}
		gotRow := modelRow{fields: got.Fields, vv: got.VV, site: got.Site, created: got.Created, updated: got.Updated}
		if d := diffRows(map[string]modelRow{id: gotRow}, map[string]modelRow{id: want}); d != "" {
			t.Fatalf("update at %s: %s", sites[i].Name, d)
		}
		m.write(i, id, want)
	}
	live := func(i int) bool { return !m.down[i] }

	for k := 0; k+1 < len(script); k += 2 {
		op, arg := script[k]%10, int(script[k+1])
		i := arg % n
		switch op {
		case 0: // put at site i
			if !live(i) {
				continue
			}
			fields := map[string]string{"title": fmt.Sprintf("put %d at %s", k, sites[i].Name)}
			obj, err := sites[i].Space().Put("user", SharedSchemaName, fields)
			if err != nil {
				t.Fatal(err)
			}
			m.write(i, obj.ID, modelRow{fields: fields, vv: map[string]uint64{sites[i].Name: 1},
				site: sites[i].Name, created: now(), updated: now()})
		case 1: // update one row at site i
			if ids := m.ids(i); live(i) && len(ids) > 0 {
				update(i, ids[arg/n%len(ids)])
			}
		case 2: // update one row at two sites in the same instant
			j := (i + 1 + arg/n%(n-1)) % n
			if !live(i) || !live(j) {
				continue
			}
			var both []string
			for _, id := range m.ids(i) {
				if _, ok := m.held[j][id]; ok {
					both = append(both, id)
				}
			}
			if len(both) > 0 {
				id := both[arg/n%len(both)]
				update(i, id)
				update(j, id)
			}
		case 3: // drop one row at site i; its next round pulls it back
			if ids := m.ids(i); live(i) && len(ids) > 0 {
				id := ids[arg/n%len(ids)]
				if _, err := sites[i].Space().Drop(id); err != nil {
					t.Fatal(err)
				}
				delete(m.held[i], id)
				sites[i].SyncNow()
			}
		case 4: // partition: the sites in arg's low bits against the rest
			// A cut that moves restores links without a heal, and only a
			// heal re-arms dormant rounds: heal and drain first.
			if slices.Max(m.group) > 0 {
				clear(m.group)
				dep.Network().Heal()
				dep.Run()
				m.propagate()
			}
			var in, out []netsim.Address
			for s := range sites {
				m.group[s] = arg >> s & 1
				if m.group[s] == 1 {
					in = append(in, sites[s].Addrs()...)
				} else {
					out = append(out, sites[s].Addrs()...)
				}
			}
			if len(in) == 0 || len(out) == 0 {
				clear(m.group)
				dep.Network().Heal()
				break
			}
			dep.Network().Partition(in, out)
		case 5:
			clear(m.group)
			dep.Network().Heal()
		case 6:
			if live(i) {
				sites[i].Crash()
				m.crash(i)
			}
		case 7:
			if !live(i) {
				restartAndCheck(t, sites[i], m, i)
			}
		case 8: // a crash mid-append: a partial frame at the end of the log
			if dir != "" && !live(i) {
				tearWAL(t, filepath.Join(dir, sites[i].Name, "wal.log"), 1+arg%16)
			}
		case 9:
			dep.Advance(time.Duration(arg) * 50 * time.Millisecond)
		}
		dep.Run()
		m.propagate()
		for i, s := range sites {
			if d := diffRows(siteRows(s), m.held[i]); live(i) && d != "" {
				t.Fatalf("%s after op %d (%d %d): %s", s.Name, k/2, script[k]%10, arg, d)
			}
		}
	}

	for i, s := range sites {
		if !live(i) {
			restartAndCheck(t, s, m, i)
		}
	}
	clear(m.group)
	dep.Network().Heal()
	dep.Run()
	m.propagate()
	for i, s := range sites {
		if d := diffRows(siteRows(s), m.held[i]); d != "" {
			t.Fatalf("%s after heal: %s", s.Name, d)
		}
		digest := s.Space().Digest()
		if len(digest) != len(m.held[i]) {
			t.Fatalf("%s digest has %d rows, model %d", s.Name, len(digest), len(m.held[i]))
		}
		for id, vv := range digest {
			if !maps.Equal(vv, m.held[i][id].vv) {
				t.Fatalf("%s digest of %s is %v, model %v", s.Name, id, vv, m.held[i][id].vv)
			}
		}
	}
}

// restartAndCheck restarts site i and holds what it recovered to the
// model before any round runs: a durable site's acked rows, or nothing.
func restartAndCheck(t *testing.T, s *Site, m *model, i int) {
	t.Helper()
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	m.restart(i)
	if d := diffRows(siteRows(s), m.held[i]); d != "" {
		t.Fatalf("%s recovered: %s", s.Name, d)
	}
}

// tearWAL appends n bytes of a frame that never completed.
func tearWAL(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x01, 0x00, 0x7f, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}
	if _, err := f.Write(torn[:n]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzDeploymentMatchesModel holds a deployment — mesh or overlay, memory
// or durable — to the reference model through puts, updates, concurrent
// updates, drops, partitions, heals, crashes, restarts and torn logs.
func FuzzDeploymentMatchesModel(f *testing.F) {
	for _, seed := range modelSeeds {
		f.Add(seed)
	}
	f.Fuzz(runModelScript)
}

// modelSeeds are the hand-written scripts; each runs on all eight
// deployments by its first byte.
var modelSeeds = func() [][]byte {
	scripts := [][]byte{
		// writes, an update and a concurrent update, then a drop
		{0, 0, 0, 1, 0, 2, 1, 0, 2, 0, 2, 4, 3, 1},
		// a partition with writes on both sides and a conflict across it
		{0, 0, 4, 1, 0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 5, 0},
		// a crash, writes while down, a torn log, a restart
		{0, 0, 0, 1, 6, 1, 0, 0, 1, 0, 8, 1, 7, 1, 1, 3},
		// a crash under a partition that is never healed by the script
		{0, 2, 4, 2, 0, 1, 1, 1, 6, 1, 8, 4, 0, 0, 9, 40},
		// time passes between updates of one row at two sites
		{0, 0, 9, 20, 1, 1, 9, 3, 1, 2, 2, 6, 3, 0, 3, 7},
	}
	var out [][]byte
	for cfg := byte(0); cfg < 8; cfg++ {
		for _, s := range scripts {
			out = append(out, append([]byte{cfg}, s...))
		}
	}
	return out
}()
