package placement

import (
	"errors"
	"testing"
	"time"

	"mocca/internal/directory"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/trader"
	"mocca/internal/vclock"
)

// readFixture is a minimal trader-mediated read/forward mesh: named
// holder sites each serving a replica, plus one reading site "rd".
type readFixture struct {
	clk     *vclock.Simulated
	net     *netsim.Network
	trading *trader.Trader
	policy  *Policy
	reader  *Reader
	spaces  map[string]*information.Space
	servers map[string]*ReadServer
}

func newReadFixture(t *testing.T, holders []string, readerOpts ...ReaderOption) *readFixture {
	t.Helper()
	return newTappedReadFixture(t, holders, nil, readerOpts...)
}

// newTappedReadFixture is newReadFixture with epOpts — a tap — on every
// endpoint.
func newTappedReadFixture(t testing.TB, holders []string, epOpts []rpc.Option, readerOpts ...ReaderOption) *readFixture {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(9))
	registry := information.NewSchemaRegistry()
	if err := registry.Register(information.Schema{Name: "doc", Fields: []information.Field{
		{Name: "title", Type: information.FieldText, Required: true},
		{Name: "body", Type: information.FieldText},
	}}); err != nil {
		t.Fatal(err)
	}
	trading := trader.New()
	if err := trading.RegisterType(ServiceType); err != nil {
		t.Fatal(err)
	}
	f := &readFixture{
		clk: clk, net: net, trading: trading, policy: NewPolicy(),
		spaces: make(map[string]*information.Space), servers: make(map[string]*ReadServer),
	}
	for _, h := range holders {
		sp := information.NewSpace(registry, nil, clk, information.WithSite(h))
		ep := rpc.NewEndpoint(net.MustAddNode(netsim.Address("place-"+h)), clk, epOpts...)
		hh := h
		f.spaces[h] = sp
		f.servers[h] = NewReadServer(ep, h, func() *information.Space { return f.spaces[hh] },
			WithHolderPolicy(f.policy))
		if err := trading.Export(trader.Offer{
			ID:          OfferID(h, DefaultSpace),
			ServiceType: ServiceType,
			Provider:    netsim.Address("place-" + h),
			Properties:  directory.NewAttributes(SpaceProp, DefaultSpace, SiteProp, h),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ep := rpc.NewEndpoint(net.MustAddNode("place-rd"), clk, epOpts...)
	f.reader = NewReader(ep, trading, "rd", append([]ReaderOption{WithNegativeCache(f.policy)}, readerOpts...)...)
	return f
}

// drive runs op on a helper goroutine while advancing the simulated
// clock from the test goroutine.
func (f *readFixture) drive(t *testing.T, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case err := <-done:
			return err
		case <-deadline:
			t.Fatal("simulated op did not complete")
		default:
			time.Sleep(200 * time.Microsecond)
			f.clk.Advance(20 * time.Millisecond)
		}
	}
}

func (f *readFixture) read(t *testing.T, id string) error {
	t.Helper()
	return f.drive(t, func() error {
		_, _, err := f.reader.Read("ada", id)
		return err
	})
}

// TestNegativeCacheShortCircuitsRepeatedMisses: a miss every holder
// definitively refused is cached under (policy version, write
// generation); repeated reads stop walking the offers, and both a Bump
// and a policy change re-open the walk.
func TestNegativeCacheShortCircuitsRepeatedMisses(t *testing.T) {
	f := newReadFixture(t, []string{"h0", "h1"})
	if err := f.read(t, "info-missing"); !errors.Is(err, ErrNoHolder) {
		t.Fatalf("first read err = %v, want ErrNoHolder", err)
	}
	s := f.reader.Stats()
	if s.Attempts != 2 || s.NegativeStores != 1 {
		t.Fatalf("first-read stats = %+v", s)
	}

	// Cached: no holder walk at all.
	if err := f.read(t, "info-missing"); !errors.Is(err, ErrNoHolder) {
		t.Fatalf("cached read err = %v", err)
	}
	s = f.reader.Stats()
	if s.Attempts != 2 || s.NegativeHits != 1 {
		t.Fatalf("cached-read stats = %+v", s)
	}

	// A local/applied write invalidates the cache.
	f.reader.Bump()
	if err := f.read(t, "info-missing"); !errors.Is(err, ErrNoHolder) {
		t.Fatalf("post-bump read err = %v", err)
	}
	if s = f.reader.Stats(); s.Attempts != 4 {
		t.Fatalf("post-bump stats = %+v", s)
	}

	// A policy change invalidates it too.
	f.policy.Use(ByField("body", "scoped", "h0"))
	if err := f.read(t, "info-missing"); !errors.Is(err, ErrNoHolder) {
		t.Fatalf("post-policy read err = %v", err)
	}
	if s = f.reader.Stats(); s.Attempts != 6 {
		t.Fatalf("post-policy stats = %+v", s)
	}
}

// TestNegativeCacheTTLBoundsStaleness: with a TTL configured, a cached
// miss expires on the clock — an id created later at a remote-only
// holder becomes readable within one TTL, with no local write (Bump)
// and no policy change on the reading site.
func TestNegativeCacheTTLBoundsStaleness(t *testing.T) {
	var f *readFixture
	f = newReadFixture(t, []string{"h0", "h1"},
		WithNegativeTTL(5*time.Second, func() time.Time { return f.clk.Now() }))

	if err := f.read(t, "info-late"); !errors.Is(err, ErrNoHolder) {
		t.Fatalf("first read err = %v, want ErrNoHolder", err)
	}
	if err := f.read(t, "info-late"); !errors.Is(err, ErrNoHolder) {
		t.Fatalf("cached read err = %v", err)
	}
	s := f.reader.Stats()
	if s.NegativeStores != 1 || s.NegativeHits != 1 || s.Attempts != 2 {
		t.Fatalf("pre-expiry stats = %+v", s)
	}

	// The object now springs into existence at a holder, and the TTL
	// elapses. No Bump, no policy change.
	if _, _, err := f.spaces["h0"].ApplyRemote(mkObject(f.clk, "info-late")); err != nil {
		t.Fatal(err)
	}
	f.clk.Advance(6 * time.Second)

	if err := f.read(t, "info-late"); err != nil {
		t.Fatalf("post-expiry read err = %v, want served", err)
	}
	s = f.reader.Stats()
	if s.NegativeExpired != 1 || s.Served != 1 {
		t.Fatalf("post-expiry stats = %+v", s)
	}
}

// TestMissesAcrossDownHoldersAreNotCached: a read that failed because a
// holder was unreachable is not a definitive miss — the object might
// live exactly there — so it must not enter the negative cache.
func TestMissesAcrossDownHoldersAreNotCached(t *testing.T) {
	f := newReadFixture(t, []string{"h0", "h1"})
	if node, ok := f.net.Node("place-h1"); ok {
		node.SetDown(true)
	} else {
		t.Fatal("place-h1 missing")
	}
	if err := f.read(t, "info-missing"); !errors.Is(err, ErrNoHolder) {
		t.Fatalf("read err = %v", err)
	}
	if s := f.reader.Stats(); s.NegativeStores != 0 {
		t.Fatalf("indefinite miss was cached: %+v", s)
	}
}

// TestFailureCooldownRotatesHolders: after a holder times out, the next
// resolutions defer it to the tail of the scan instead of paying its
// timeout up front on every read.
func TestFailureCooldownRotatesHolders(t *testing.T) {
	f := newReadFixture(t, []string{"h0", "h1"})
	obj, err := f.spaces["h1"].Put("ada", "doc", map[string]string{"title": "held"})
	if err != nil {
		t.Fatal(err)
	}
	if node, ok := f.net.Node("place-h0"); ok {
		node.SetDown(true)
	} else {
		t.Fatal("place-h0 missing")
	}

	// First read pays h0's timeout, then h1 serves.
	if err := f.read(t, obj.ID); err != nil {
		t.Fatal(err)
	}
	s := f.reader.Stats()
	if s.Served != 1 || s.Attempts != 2 || s.SkippedHolders != 0 {
		t.Fatalf("first-read stats = %+v", s)
	}

	// Second read defers h0: h1 answers on the first attempt.
	if err := f.read(t, obj.ID); err != nil {
		t.Fatal(err)
	}
	s = f.reader.Stats()
	if s.Served != 2 || s.Attempts != 3 || s.SkippedHolders != 1 {
		t.Fatalf("second-read stats = %+v", s)
	}
}

// mkObject builds a foreign row as a non-placed site would hold it after
// a local Put.
func mkObject(clk vclock.Clock, id string) *information.Object {
	now := clk.Now()
	return &information.Object{
		ID: id, Schema: "doc", Owner: "ada",
		Fields:  map[string]string{"title": "routed", "body": "scoped"},
		Version: 1, VV: vclock.NewVersion("rd"), Site: "rd",
		Created: now, Updated: now,
	}
}

// TestForwardWriteReachesPlacedHolder: a write forwarded off a
// non-placed site lands on a placed holder's replica.
func TestForwardWriteReachesPlacedHolder(t *testing.T) {
	f := newReadFixture(t, []string{"h0", "h1"})
	f.policy.Use(ByField("body", "scoped", "h1"))
	obj := mkObject(f.clk, "info-fwd")

	var gotSite string
	var gotErr error
	f.reader.Forward(obj, f.policy.SitesFor(Describe(obj)), func(site string, err error) {
		gotSite, gotErr = site, err
	})
	f.clk.RunUntilIdle()
	if gotErr != nil || gotSite != "h1" {
		t.Fatalf("forward = %q, %v", gotSite, gotErr)
	}
	if got, ok := f.spaces["h1"].Fetch(obj.ID); !ok || got.Fields["title"] != "routed" {
		t.Fatalf("holder replica missing forwarded row: %v %v", got, ok)
	}
	if _, ok := f.spaces["h0"].Fetch(obj.ID); ok {
		t.Fatal("forward landed on a non-placed holder")
	}
	if s := f.servers["h1"].Stats(); s.WritesAccepted != 1 {
		t.Fatalf("holder stats = %+v", s)
	}
	if s := f.reader.Stats(); s.Forwards != 1 || s.Forwarded != 1 {
		t.Fatalf("reader stats = %+v", s)
	}
}

// TestForwardWriteFailsWhenNoHolderReachable: the sole placed holder is
// down — the forward reports ErrNoHolder so the writer keeps its copy.
func TestForwardWriteFailsWhenNoHolderReachable(t *testing.T) {
	f := newReadFixture(t, []string{"h0"})
	f.policy.Use(ByField("body", "scoped", "h0"))
	if node, ok := f.net.Node("place-h0"); ok {
		node.SetDown(true)
	}
	obj := mkObject(f.clk, "info-stuck")
	var gotErr error
	f.reader.Forward(obj, f.policy.SitesFor(Describe(obj)), func(_ string, err error) { gotErr = err })
	f.clk.RunUntilIdle()
	if !errors.Is(gotErr, ErrNoHolder) {
		t.Fatalf("forward err = %v, want ErrNoHolder", gotErr)
	}
}

// TestForwardWriteRefusedByMovedPolicy: the policy moves while the
// forward is in flight; the holder refuses and the forward falls through
// to ErrNoHolder (no other placed holder exists).
func TestForwardWriteRefusedByMovedPolicy(t *testing.T) {
	f := newReadFixture(t, []string{"h0"})
	f.policy.Use(ByField("body", "scoped", "h0"))
	obj := mkObject(f.clk, "info-moved")
	pl := f.policy.SitesFor(Describe(obj))
	// The space moves away before the forward lands.
	f.policy.Use(ByField("body", "scoped", "h9"))
	var gotErr error
	f.reader.Forward(obj, pl, func(_ string, err error) { gotErr = err })
	f.clk.RunUntilIdle()
	if !errors.Is(gotErr, ErrNoHolder) {
		t.Fatalf("forward err = %v, want ErrNoHolder", gotErr)
	}
	if s := f.servers["h0"].Stats(); s.WritesRefused != 1 {
		t.Fatalf("holder stats = %+v", s)
	}
}
