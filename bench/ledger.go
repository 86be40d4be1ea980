package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"mocca"
	"mocca/internal/channel"
	"mocca/internal/core"
	"mocca/internal/directory"
	"mocca/internal/id"
	"mocca/internal/information"
	"mocca/internal/information/logstore"
	"mocca/internal/mhs"
	"mocca/internal/netsim"
	"mocca/internal/observe"
	"mocca/internal/replica"
	"mocca/internal/rpc"
	"mocca/internal/trader"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// The layer ledger prices one call at each seam the canonical replicated
// write crosses, on one shared fixture (fixtureRow). Every entry runs a
// fixed number of iterations per trial and reports the median of
// ledgerTrials trials, as wall ns and mallocs per call: unit cost times the
// traced count of that call predicts the layer's slice of run_wall_s.
const ledgerTrials = 5

// treeRows is the size of an org_mesh site's Merkle tree at the end of a
// run: 1000 seeded objects plus the run's info.write ops.
const treeRows = 1306

// ledgerEntry is one priced call. setup builds the fixture under dir and
// returns the call, plus a cleanup that may be nil.
type ledgerEntry struct {
	name  string
	iters int
	setup func(dir string) (op func() error, cleanup func(), err error)
}

var ledger = []ledgerEntry{
	{"wire.marshal", 10000, func(string) (func() error, func(), error) {
		env, err := fixtureEnvelope()
		return func() error { _, err := wire.Marshal(env); return err }, nil, err
	}},
	{"wire.unmarshal", 50000, func(string) (func() error, func(), error) {
		env, err := fixtureEnvelope()
		if err != nil {
			return nil, nil, err
		}
		data, err := wire.Marshal(env)
		return func() error { _, err := wire.Unmarshal(data); return err }, nil, err
	}},
	{"wire.encode_body", 1000, func(string) (func() error, func(), error) {
		rows := fixtureWireRows()
		return func() error { _, err := wire.EncodeBody(rows); return err }, nil, nil
	}},
	{"wire.decode_body", 500, func(string) (func() error, func(), error) {
		body, err := wire.EncodeBody(fixtureWireRows())
		return func() error {
			var rows []information.WireObject
			return wire.DecodeBody(body, &rows)
		}, nil, err
	}},
	{"clock.event", 200000, func(string) (func() error, func(), error) {
		clk := vclock.NewSimulated(netsim.DefaultEpoch)
		fired := 0
		return func() error {
			clk.AfterFunc(time.Millisecond, func() { fired++ })
			clk.Advance(time.Millisecond)
			return nil
		}, nil, nil
	}},
	{"netsim.send_deliver", 100000, func(string) (func() error, func(), error) {
		clk, net := simNet()
		a, b := net.MustAddNode("a"), net.MustAddNode("b")
		b.Handle(func(netsim.Message) {})
		body, err := wire.EncodeBody(fixtureWireRows())
		return func() error {
			if err := a.Send(netsim.Message{To: "b", Kind: "bench", Payload: body}); err != nil {
				return err
			}
			clk.RunUntilIdle()
			return nil
		}, nil, err
	}},
	{"channel.send_deliver", 10000, func(string) (func() error, func(), error) {
		clk, net := simNet()
		a, b := channel.New(net.MustAddNode("a")), channel.New(net.MustAddNode("b"))
		got := 0
		b.Handle(func(netsim.Address, *wire.Envelope) { got++ })
		body, err := wire.EncodeBody(fixtureWireRows())
		return func() error {
			if err := a.Send("b", wire.NewEnvelope("bench", "c1", body)); err != nil {
				return err
			}
			clk.RunUntilIdle()
			return nil
		}, nil, err
	}},
	{"rpc.call", 4000, func(string) (func() error, func(), error) {
		clk, net := simNet()
		client := rpc.NewEndpoint(net.MustAddNode("client"), clk)
		server := rpc.NewEndpoint(net.MustAddNode("server"), clk)
		server.MustRegister("bench.echo", func(r rpc.Request) ([]byte, error) { return r.Body, nil })
		body, err := wire.EncodeBody(fixtureWireRows())
		return func() error {
			var res rpc.Result
			client.Go("server", "bench.echo", body, func(r rpc.Result) { res = r })
			clk.RunUntilIdle()
			if res.Err != nil || len(res.Body) != len(body) {
				return fmt.Errorf("echo returned %d bytes, err %v", len(res.Body), res.Err)
			}
			return nil
		}, nil, err
	}},
	{"information.space_put", 5000, func(string) (func() error, func(), error) {
		sp, err := fixtureSpace("s000", nil)
		row := fixtureRow(0)
		return func() error {
			_, err := sp.Put(row.Owner, row.Schema, row.Fields)
			return err
		}, nil, err
	}},
	{"information.space_update", 5000, func(string) (func() error, func(), error) {
		sp, err := fixtureSpace("s000", nil)
		if err != nil {
			return nil, nil, err
		}
		row := fixtureRow(0)
		obj, err := sp.Put(row.Owner, row.Schema, row.Fields)
		return func() error {
			obj, err = sp.Update(row.Owner, obj.ID, obj.Version, map[string]string{"body": "rev by " + row.Owner, "author": row.Owner})
			return err
		}, nil, err
	}},
	{"information.apply_remote", 10000, func(string) (func() error, func(), error) {
		sp, err := fixtureSpace("s000", nil)
		remote := fixtureRow(0)
		remote.Site = "s001"
		remote.VV = vclock.Version{}
		return func() error {
			remote.VV = remote.VV.Tick("s001")
			remote.Version = remote.VV.Sum()
			changed, _, err := sp.ApplyRemote(remote)
			if err == nil && !changed {
				err = errors.New("a causally newer remote row changed nothing")
			}
			return err
		}, nil, err
	}},
	{"information.tree_update", 20000, func(string) (func() error, func(), error) {
		tree := fixtureTree()
		ids := make([]string, treeRows)
		for k := range ids {
			ids[k] = rowID(uint32(k))
		}
		vv := vclock.NewVersion(storeSite)
		n := 0
		return func() error {
			if n%treeRows == 0 {
				vv = vv.Clone().Tick(storeSite)
			}
			tree.Update(ids[n%treeRows], vv)
			n++
			return nil
		}, nil, nil
	}},
	{"information.newer_than_hw", 200, func(string) (func() error, func(), error) {
		// One stale site mark: the peer has seen everything but the last
		// write of one site, the common case of a mismatched digest round.
		tree := fixtureTree()
		tree.Update(rowID(42), vclock.Version{storeSite: 1, "s001": 1})
		hw := tree.HighWater()
		hw["s001"] = 0
		return func() error {
			if ids := tree.NewerThanHW(hw); len(ids) != 1 {
				return fmt.Errorf("NewerThanHW returned %d ids, want 1", len(ids))
			}
			return nil
		}, nil, nil
	}},
	{"backend.exec_mem", 10000, func(string) (func() error, func(), error) {
		op, err := execOp(information.NewStore())
		return op, nil, err
	}},
	{"backend.exec_logstore", 4000, func(dir string) (func() error, func(), error) {
		st, err := logstore.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		op, err := execOp(st)
		return op, func() { st.Close() }, err
	}},
	{"replica.converged_round", 2000, func(string) (func() error, func(), error) {
		clk, spaces, reps, _, err := fixtureReplicas()
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			reps[0].SyncNow()
			clk.RunUntilIdle()
			return rootsEqual(spaces)
		}, nil, nil
	}},
	{"replica.one_write_round", 100, func(string) (func() error, func(), error) {
		clk, spaces, _, obj, err := fixtureReplicas()
		if err != nil {
			return nil, nil, err
		}
		row := fixtureRow(0)
		return func() error {
			obj, err = spaces[0].Update(row.Owner, obj.ID, obj.Version, map[string]string{"body": "rev by " + row.Owner})
			if err != nil {
				return err
			}
			clk.RunUntilIdle()
			return rootsEqual(spaces)
		}, nil, nil
	}},
	{"mocca.write_converge_mesh8", 40, func(string) (func() error, func(), error) { return writeConverge() }},
	{"mocca.write_converge_gossip8", 60, func(string) (func() error, func(), error) { return writeConverge(mocca.WithGossip()) }},
	{"directory.search", 500, func(string) (func() error, func(), error) {
		// The harness's DIT and lookup: 2000 users under 8 org units, one
		// subtree search by cn below the user's unit, as the DSA serves it.
		dit := directory.NewDIT()
		add := func(dn string, attrs directory.Attributes) error {
			parsed, err := directory.ParseDN(dn)
			if err != nil {
				return err
			}
			return dit.Add(parsed, attrs)
		}
		if err := add("o=mocca", directory.Attributes{"o": {"mocca"}}); err != nil {
			return nil, nil, err
		}
		for u := 0; u < 8; u++ {
			if err := add(fmt.Sprintf("ou=ou%03d,o=mocca", u), directory.Attributes{"ou": {fmt.Sprintf("ou%03d", u)}}); err != nil {
				return nil, nil, err
			}
		}
		for i := 0; i < 2000; i++ {
			name := fmt.Sprintf("u%05d", i)
			attrs := directory.Attributes{"cn": {name}, "site": {fmt.Sprintf("s%03d", i%16)}, "mail": {name + "@example"}}
			if err := add(fmt.Sprintf("cn=%s,ou=ou%03d,o=mocca", name, i%8), attrs); err != nil {
				return nil, nil, err
			}
		}
		n := 0
		return func() error {
			n = (n + 7) % 2000
			base, err := directory.ParseDN(fmt.Sprintf("ou=ou%03d,o=mocca", n%8))
			if err != nil {
				return err
			}
			filter, err := directory.ParseFilter(fmt.Sprintf("(cn=u%05d)", n))
			if err != nil {
				return err
			}
			got, err := dit.Search(directory.SearchRequest{Base: base, Scope: directory.ScopeSubtree, Filter: filter, SizeLimit: 8})
			if err == nil && len(got) != 1 {
				err = fmt.Errorf("search for u%05d found %d entries", n, len(got))
			}
			return err
		}, nil, nil
	}},
	{"trader.import", 4000, func(string) (func() error, func(), error) {
		tr := trader.New()
		if err := tr.RegisterType("cscw.collab"); err != nil {
			return nil, nil, err
		}
		for i := 0; i < 16; i++ {
			site := fmt.Sprintf("s%03d", i)
			err := tr.Export(trader.Offer{ID: "wl-" + site, ServiceType: "cscw.collab",
				Provider: netsim.Address("load-" + site), Properties: directory.NewAttributes("site", site)})
			if err != nil {
				return nil, nil, err
			}
		}
		return func() error {
			offers, err := tr.Import(trader.ImportRequest{ServiceType: "cscw.collab", MaxOffers: 3})
			if err == nil && len(offers) != 3 {
				err = fmt.Errorf("import returned %d offers", len(offers))
			}
			return err
		}, nil, nil
	}},
	{"mhs.send_deliver", 1000, func(string) (func() error, func(), error) {
		clk, net := simNet()
		a := mhs.NewMTA("mta-a", "a.example", rpc.NewEndpoint(net.MustAddNode("mta-a"), clk), clk)
		b := mhs.NewMTA("mta-b", "b.example", rpc.NewEndpoint(net.MustAddNode("mta-b"), clk), clk)
		a.AddRoute("b.example", "mta-b")
		b.AddRoute("a.example", "mta-a")
		from := mhs.NewUserAgent(mhs.MustParseORName("pn=u00000;o=a;c=example"), a)
		to := mhs.NewUserAgent(mhs.MustParseORName("pn=u00001;o=b;c=example"), b)
		sent := 0
		return func() error {
			if _, err := from.Send([]mhs.ORName{to.Name}, "update", "status report"); err != nil {
				return err
			}
			clk.RunUntilIdle()
			sent++
			if to.Unread() != sent {
				return fmt.Errorf("%d of %d messages delivered", to.Unread(), sent)
			}
			return nil
		}, nil, nil
	}},
	{"observe.span", 200000, func(string) (func() error, func(), error) {
		clk := vclock.NewSimulated(netsim.DefaultEpoch)
		tracer := observe.NewTracer(1, 0, clk.Now)
		return func() error {
			sp := tracer.StartRoot("bench", storeSite)
			sp.End()
			return nil
		}, nil, nil
	}},
}

func simNet() (*vclock.Simulated, *netsim.Network) {
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	return clk, netsim.New(netsim.WithClock(clk), netsim.WithSeed(1),
		netsim.WithDefaultLink(netsim.LinkProfile{Latency: 20 * time.Millisecond}))
}

// fixtureWireRows is a sync reply's worth of rows: 16 fixture rows in wire form.
func fixtureWireRows() []information.WireObject {
	rows := make([]information.WireObject, 16)
	for i := range rows {
		rows[i] = information.ToWire(fixtureRow(uint32(i)))
	}
	return rows
}

// fixtureEnvelope carries those rows the way a replica reply does.
func fixtureEnvelope() (*wire.Envelope, error) {
	body, err := wire.EncodeBody(fixtureWireRows())
	if err != nil {
		return nil, err
	}
	env := wire.NewEnvelope("rpc.reply", "c000042", body)
	env.SetHeader("method", "replica.sync")
	return env, nil
}

func fixtureSpace(site string, ids *id.Generator) (*information.Space, error) {
	registry := information.NewSchemaRegistry()
	err := registry.Register(information.Schema{Name: core.SharedSchemaName, Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
		{Name: "author", Type: information.FieldText},
		{Name: "context", Type: information.FieldText},
	}})
	if err != nil {
		return nil, err
	}
	opts := []information.SpaceOption{information.WithSite(site)}
	if ids != nil {
		opts = append(opts, information.WithIDs(ids))
	}
	return information.NewSpace(registry, nil, vclock.NewSimulated(netsim.DefaultEpoch), opts...), nil
}

func fixtureTree() *information.DigestTree {
	tree := information.NewDigestTree()
	for k := 0; k < treeRows; k++ {
		tree.Update(rowID(uint32(k)), vclock.NewVersion(storeSite))
	}
	return tree
}

// execOp loads 1000 fixture rows and returns the call that overwrites them
// round robin at the Backend seam.
func execOp(b information.Backend) (func() error, error) {
	ids := make([]string, 1000)
	for k := range ids {
		row := fixtureRow(uint32(k))
		if err := insert(b, row); err != nil {
			return nil, err
		}
		ids[k] = row.ID
	}
	n := 0
	var userBytes int64
	return func() error {
		_, err := b.Exec(ids[n%len(ids)], overwrite(n, &userBytes))
		n++
		return err
	}, nil
}

// fixtureReplicas is two converged replicators holding treeRows rows; it
// also returns the last row written.
func fixtureReplicas() (*vclock.Simulated, []*information.Space, []*replica.Replicator, *information.Object, error) {
	clk, net := simNet()
	ids := id.New()
	var spaces []*information.Space
	var reps []*replica.Replicator
	for _, site := range []string{"s000", "s001"} {
		sp, err := fixtureSpace(site, ids)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("repl-"+site)), clk, rpc.WithIDs(ids))
		spaces, reps = append(spaces, sp), append(reps, replica.New(ep, clk, sp))
	}
	reps[0].AddPeer(reps[1].Addr())
	reps[1].AddPeer(reps[0].Addr())
	for _, r := range reps {
		r.AutoSync(5 * time.Second)
	}
	var last *information.Object
	for k := 0; k < treeRows; k++ {
		row := fixtureRow(uint32(k))
		obj, err := spaces[0].Put(row.Owner, row.Schema, row.Fields)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		last = obj
	}
	clk.RunUntilIdle()
	return clk, spaces, reps, last, rootsEqual(spaces)
}

func rootsEqual(spaces []*information.Space) error {
	for _, sp := range spaces[1:] {
		if sp.Tree().Root() != spaces[0].Tree().Root() {
			return errors.New("replicas did not converge")
		}
	}
	return nil
}

// writeConverge is the whole seam stack once: one Space.Update on an 8-site
// deployment, advanced event by event until every site's Merkle root matches.
func writeConverge(opts ...mocca.Option) (func() error, func(), error) {
	dep := mocca.NewDeployment(append([]mocca.Option{mocca.WithSeed(1)}, opts...)...)
	var spaces []*information.Space
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%03d", i)
		spaces = append(spaces, dep.AddSite(name, name+".example").Space())
	}
	dep.Run()
	row := fixtureRow(0)
	obj, err := spaces[0].Put(row.Owner, row.Schema, row.Fields)
	if err != nil {
		return nil, nil, err
	}
	converge := func() error {
		for rootsEqual(spaces) != nil {
			next, ok := dep.Clock().NextDeadline()
			if !ok {
				return errors.New("event queue drained before the sites converged")
			}
			dep.Clock().AdvanceTo(next)
		}
		return nil
	}
	return func() error {
		obj, err = spaces[0].Update(row.Owner, obj.ID, obj.Version, map[string]string{"body": "rev by " + row.Owner})
		if err != nil {
			return err
		}
		return converge()
	}, nil, converge()
}

// runLedger measures every entry and returns ledger.<name>.ns and .allocs.
// The benchmark passes ledgerTrials and a scale of 1; the tier-1 test runs
// the same entries with their iteration counts divided by a larger scale.
func runLedger(log *spanLog, outDir string, trials, scale int) (map[string]float64, error) {
	out := make(map[string]float64, 2*len(ledger))
	for _, e := range ledger {
		e.iters = max(1, e.iters/scale)
		ns, allocs, err := e.measure(log, outDir, trials)
		if err != nil {
			return nil, fmt.Errorf("ledger %s: %w", e.name, err)
		}
		out["ledger."+e.name+".ns"] = ns
		out["ledger."+e.name+".allocs"] = allocs
	}
	return out, nil
}

func (e ledgerEntry) measure(log *spanLog, outDir string, trials int) (ns, allocs float64, err error) {
	dir, err := os.MkdirTemp(outDir, "ledger-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	op, cleanup, err := e.setup(dir)
	if err != nil {
		return 0, 0, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	if err := op(); err != nil { // warm: lazy maps, first-use pools
		return 0, 0, err
	}
	var nsT, allocT []float64
	for t := 0; t < trials; t++ {
		log.nextRep()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := log.begin("ledger."+e.name, 0)
		t0 := time.Now()
		for i := 0; i < e.iters; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		wall := time.Since(t0)
		sp.end()
		runtime.ReadMemStats(&m1)
		nsT = append(nsT, float64(wall)/float64(e.iters))
		allocT = append(allocT, float64(m1.Mallocs-m0.Mallocs)/float64(e.iters))
	}
	return median(nsT), median(allocT), nil
}
