package information_test

import (
	"fmt"
	"testing"

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
