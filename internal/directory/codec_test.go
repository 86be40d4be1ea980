package directory

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
	"mocca/internal/wire/wiretest"
)

// harnessEntry is a person as the workload harness seeds the DIT and as its
// directory lookup finds them.
func harnessEntry(i int) *Entry {
	name := fmt.Sprintf("u%05d", i)
	return &Entry{DN: MustParseDN(fmt.Sprintf("cn=%s,ou=unit%02d,o=mocca", name, i%12)), Attrs: Attributes{
		"cn": {name}, "site": {fmt.Sprintf("s%03d", i%16)}, "mail": {name + "@" + fmt.Sprintf("s%03d", i%16) + ".example"}}}
}

// bodyCases covers every DSA message: as the harness and the administrative
// round send them and at the corners of each one's shape. Entries are in the
// form they decode to: a parsed DN, attributes never nil.
func bodyCases() []wiretest.Case {
	rng := rand.New(rand.NewSource(11))
	wide := Attributes{"objectclass": {"top", "person", "organizationalPerson"}, "cn": {"Jürgen", "jürgen"}, "seealso": nil,
		"description": {""}, "títle": {"naïve ☃"}, "o": {"gmd"}, "ou": {"cscw"}, "l": {"köln"}, "mail": {"j@gmd.de"}, "": {"x"}}
	emptyValued := wiretest.Reinserted(rng, wide)
	emptyValued["seealso"] = []string{}
	found := searchResp{Entries: []*Entry{harnessEntry(12)}}
	jurgen := &Entry{DN: MustParseDN("cn=Jürgen,o=gmd"), Attrs: wide}
	bare, root := &Entry{DN: MustParseDN("o=bare"), Attrs: Attributes{}}, &Entry{DN: DN{}, Attrs: Attributes{}}
	return []wiretest.Case{
		wiretest.Of("searchReq", searchReq{Base: "ou=unit00,o=mocca", Scope: int(ScopeSubtree), Filter: "(cn=u00012)", SizeLimit: 8}),
		wiretest.Of("searchReq/deref", searchReq{Base: "o=日本", Scope: int(ScopeBase), Filter: "(&(cn=jü*)(!(ou=x)))", SizeLimit: -1, Deref: true}),
		wiretest.Of("searchReq/zero", searchReq{}),
		wiretest.Of("searchResp", found, searchResp{Entries: []*Entry{{DN: found.Entries[0].DN, Attrs: wiretest.Reinserted(rng, found.Entries[0].Attrs)}}}),
		wiretest.Of("searchResp/partial", searchResp{Partial: true, Entries: []*Entry{harnessEntry(1), harnessEntry(2), harnessEntry(3)}}),
		wiretest.Of("searchResp/wide entry", searchResp{Entries: []*Entry{jurgen, bare, root}},
			searchResp{Entries: []*Entry{{DN: jurgen.DN, Attrs: emptyValued}, {DN: bare.DN}, {}}}),
		wiretest.Of("searchResp/zero", searchResp{}, searchResp{Entries: []*Entry{}}),
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, bodyCases())
}

func TestBodiesGolden(t *testing.T) {
	wiretest.Golden(t, bodyCases(), map[string]string{
		"searchReq": "c100000000116f753d756e697430302c6f3d6d6f63636100000000000000030000000b28636e3d753030303132290000" +
			"000000000008",
		"searchResp": "c20000000000000000010000001b636e3d7530303031322c6f753d756e697430302c6f3d6d6f63636100000000000000" +
			"0300000002636e000000000000000100000006753030303132000000046d61696c000000000000000100000013753030" +
			"30313240733031322e6578616d706c65000000047369746500000000000000010000000473303132",
	})
}

func TestBodiesRejectDamage(t *testing.T) {
	huge := wire.AppendUint64(nil, 1<<60) // each count, aimed at
	one := wire.AppendUint64(nil, 1)
	oneEntry := append(append([]byte{tagSearchResp, 0}, one...), 0, 0, 0, 0) // one entry, its DN empty
	oneAttr := append(append(bytes.Clone(oneEntry), one...), 0, 0, 0, 0)     // one attribute, its name empty
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"entries":    append([]byte{tagSearchResp, 0}, huge...),
		"attributes": append(bytes.Clone(oneEntry), huge...),
		"values":     append(bytes.Clone(oneAttr), huge...),
	})
	// The prefixes are what they claim: closed with a zero count, a response.
	if err := new(searchResp).UnmarshalBinary(append(bytes.Clone(oneAttr), wire.AppendUint64(nil, 0)...)); err != nil {
		t.Fatalf("the aimed bodies' prefix is not a searchResp's: %v", err)
	}
}

// searchRound seeds a DSA with the harness's shape of tree, runs the
// harness's lookup through a Client — found, capped by the size limit,
// nothing found, refused — and returns what came back and the bodies put on
// the wire by rpc method.
func searchRound(tb testing.TB) (found [][]*Entry, errs []error, bodies map[string][][]byte) {
	tb.Helper()
	bodies = map[string][][]byte{}
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(11))
	tap := wiretest.Tap(bodies)
	dit := NewDIT()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(dit.Add(MustParseDN("o=mocca"), Attributes{"o": {"mocca"}}))
	for u := 0; u < 12; u++ {
		must(dit.Add(MustParseDN(fmt.Sprintf("ou=unit%02d,o=mocca", u)), Attributes{"ou": {fmt.Sprintf("unit%02d", u)}}))
	}
	for i := 0; i < 48; i++ {
		e := harnessEntry(i)
		must(dit.Add(e.DN, e.Attrs))
	}
	NewServer(rpc.NewEndpoint(net.MustAddNode("dsa"), clk, tap), dit)
	client := NewClient(rpc.NewEndpoint(net.MustAddNode("load"), clk, tap), "dsa")
	collect := func(entries []*Entry, err error) {
		found, errs = append(found, entries), append(errs, err)
	}
	client.GoSearch("ou=unit00,o=mocca", ScopeSubtree, "(cn=u00012)", 8, collect)
	client.GoSearch("o=mocca", ScopeSubtree, "(site=s003)", 2, collect)
	client.GoSearch("ou=unit01,o=mocca", ScopeSubtree, "(cn=u00012)", 8, collect)
	client.GoSearch("o=mocca", ScopeSubtree, "(cn=", 8, collect)
	clk.RunUntilIdle()
	return found, errs, bodies
}

// TestGoSearchThroughTheClient: the asynchronous search the harness uses
// answers on the event goroutine with parsed entries, returns a capped
// answer as far as it got, and surfaces the server's refusal.
func TestGoSearchThroughTheClient(t *testing.T) {
	found, errs, _ := searchRound(t)
	if len(found) != 4 {
		t.Fatalf("%d of 4 searches completed", len(found))
	}
	want := harnessEntry(12)
	if errs[0] != nil || len(found[0]) != 1 || !found[0][0].DN.Equal(want.DN) || found[0][0].Attrs.First("mail") != want.Attrs.First("mail") {
		t.Fatalf("lookup found %v, %v; want %s", found[0], errs[0], want.DN)
	}
	if errs[1] != nil || len(found[1]) != 2 {
		t.Fatalf("a search capped at two returned %d entries, %v", len(found[1]), errs[1])
	}
	if errs[2] != nil || len(found[2]) != 0 {
		t.Fatalf("a lookup in the wrong unit found %v, %v", found[2], errs[2])
	}
	if errs[3] == nil {
		t.Fatal("a malformed filter was not refused")
	}
}

// TestSearchBodiesAreBinary: on a real search every body, request and
// reply, is a binary one or the empty body of a refusal.
func TestSearchBodiesAreBinary(t *testing.T) {
	_, _, bodies := searchRound(t)
	if len(bodies[MethodSearch]) != 8 || len(bodies) != 1 {
		t.Fatalf("the round put %d %s bodies on the wire", len(bodies[MethodSearch]), MethodSearch)
	}
	for _, b := range bodies[MethodSearch] {
		if len(b) > 0 && b[0] < 0x80 {
			t.Fatalf("%s body opens with %#x: %q", MethodSearch, b[0], b)
		}
	}
}

// FuzzDirectoryBodies: whatever bytes arrive, a decoder either refuses them
// or yields a message that encodes and decodes back to itself. The seeds
// include the bodies an older peer sent for the retired messages.
func FuzzDirectoryBodies(f *testing.F) {
	_, _, bodies := searchRound(f)
	for _, list := range bodies {
		for _, b := range list {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	for _, b := range wiretest.Retired(f, "testdata/retired-bodies.txt") {
		f.Add(b)
	}
	wiretest.Fuzz(f, []wiretest.Case{wiretest.Of("searchReq", searchReq{}), wiretest.Of("searchResp", searchResp{})})
}
