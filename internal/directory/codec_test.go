package directory

import (
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
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
	mods := []Modification{{Op: "replace", Attr: "mail", Values: []string{"u00012@s012.example", "u12@gmd.de"}},
		{Op: "remove", Attr: "seealso"}, {Op: "add", Attr: "títle", Value: "naïve ☃"}}
	return []wiretest.Case{
		wiretest.Of("searchReq", searchReq{Base: "ou=unit00,o=mocca", Scope: int(ScopeSubtree), Filter: "(cn=u00012)", SizeLimit: 8}),
		wiretest.Of("searchReq/deref", searchReq{Base: "o=日本", Scope: int(ScopeBase), Filter: "(&(cn=jü*)(!(ou=x)))", SizeLimit: -1, Deref: true}),
		wiretest.Of("searchReq/zero", searchReq{}),
		wiretest.Of("searchResp", found, searchResp{Entries: []*Entry{{DN: found.Entries[0].DN, Attrs: wiretest.Reinserted(rng, found.Entries[0].Attrs)}}}),
		wiretest.Of("searchResp/partial", searchResp{Partial: true, Entries: []*Entry{harnessEntry(1), harnessEntry(2), harnessEntry(3)}}),
		wiretest.Of("searchResp/wide entry", searchResp{Entries: []*Entry{jurgen, bare, root}},
			searchResp{Entries: []*Entry{{DN: jurgen.DN, Attrs: emptyValued}, {DN: bare.DN}, {}}}),
		wiretest.Of("searchResp/zero", searchResp{}, searchResp{Entries: []*Entry{}}),
		wiretest.Of("entry", *harnessEntry(12)),
		wiretest.Of("entry/wide", *jurgen, Entry{DN: jurgen.DN, Attrs: emptyValued}),
		wiretest.Of("entry/root", *root, Entry{}),
		wiretest.Of("dnReq", dnReq{DN: "cn=u00012,ou=unit00,o=mocca"}),
		wiretest.Of("dnReq/zero", dnReq{}),
		wiretest.Of("modifyReq", modifyReq{DN: "cn=u00012,ou=unit00,o=mocca", Mods: mods}),
		wiretest.Of("modifyReq/zero", modifyReq{}, modifyReq{Mods: []Modification{}}),
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
		"entry": "c30000001b636e3d7530303031322c6f753d756e697430302c6f3d6d6f636361000000000000000300000002636e0000" +
			"00000000000100000006753030303132000000046d61696c00000000000000010000001375303030313240733031322e" +
			"6578616d706c65000000047369746500000000000000010000000473303132",
		"dnReq": "c40000001b636e3d7530303031322c6f753d756e697430302c6f3d6d6f636361",
		"modifyReq": "c50000001b636e3d7530303031322c6f753d756e697430302c6f3d6d6f6363610000000000000003000000077265706c" +
			"616365000000046d61696c0000000000000000000000020000001375303030313240733031322e6578616d706c650000" +
			"000a75313240676d642e64650000000672656d6f766500000007736565616c736f000000000000000000000000000000" +
			"036164640000000674c3ad746c650000000a6e61c3af766520e298830000000000000000",
	})
}

func TestBodiesRejectDamage(t *testing.T) {
	huge := wire.AppendUint64(nil, 1<<60) // each count, aimed at
	one := wire.AppendUint64(nil, 1)
	oneEntry := append(append([]byte{tagSearchResp, 0}, one...), 0, 0, 0, 0) // one entry, its DN empty
	oneAttr := append(append(bytes.Clone(oneEntry), one...), 0, 0, 0, 0)     // one attribute, its name empty
	oneMod := append(append([]byte{tagModifyReq, 0, 0, 0, 0}, one...), make([]byte, 3*4)...)
	wiretest.RejectDamage(t, bodyCases(), map[string][]byte{
		"entries":    append([]byte{tagSearchResp, 0}, huge...),
		"attributes": append(bytes.Clone(oneEntry), huge...),
		"values":     append(bytes.Clone(oneAttr), huge...),
		"mods":       append([]byte{tagModifyReq, 0, 0, 0, 0}, huge...),
		"mod values": append(bytes.Clone(oneMod), huge...),
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

// adminRound runs every other DSA operation on a real exchange — add, read,
// modify, list, delete — once as the DSA carries it out and once as it
// refuses it, and returns the bodies put on the wire by rpc method.
func adminRound(tb testing.TB) map[string][][]byte {
	tb.Helper()
	bodies := map[string][][]byte{}
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(11))
	tap := wiretest.Tap(bodies)
	NewServer(rpc.NewEndpoint(net.MustAddNode("dsa"), clk, tap), NewDIT())
	ua := rpc.NewEndpoint(net.MustAddNode("load"), clk, tap)
	call := func(method string, req encoding.BinaryAppender, resp encoding.BinaryUnmarshaler) {
		ua.GoMsg("dsa", method, req, func(r rpc.Result) {
			if err := r.Decode(resp); err != nil {
				tb.Fatalf("%s: %v", method, err)
			}
		})
		clk.RunUntilIdle()
	}
	// refuse sends a request the DSA must turn down with the error named.
	refuse := func(method string, req encoding.BinaryAppender, want error) {
		var got error
		ua.GoMsg("dsa", method, req, func(r rpc.Result) { got = r.Decode(&wire.Empty{}) })
		clk.RunUntilIdle()
		var remote *rpc.RemoteError
		if !errors.As(got, &remote) || !strings.Contains(remote.Msg, want.Error()) {
			tb.Fatalf("%s: got %v, want the DSA's %q", method, got, want)
		}
	}
	person := harnessEntry(12)
	call(MethodAdd, Entry{DN: MustParseDN("o=mocca"), Attrs: Attributes{"o": {"mocca"}}}, &wire.Empty{})
	call(MethodAdd, Entry{DN: MustParseDN("ou=unit00,o=mocca")}, &wire.Empty{})
	call(MethodAdd, *person, &wire.Empty{})
	var read Entry
	call(MethodRead, dnReq{DN: person.DN.String()}, &read)
	call(MethodModify, modifyReq{DN: person.DN.String(), Mods: []Modification{{Op: "replace", Attr: "mail", Values: []string{"u12@gmd.de"}}}}, &wire.Empty{})
	var kids searchResp
	call(MethodList, dnReq{DN: "ou=unit00,o=mocca"}, &kids)
	call(MethodDelete, dnReq{DN: person.DN.String()}, &wire.Empty{})
	if !read.DN.Equal(person.DN) || read.Attrs.First("mail") != person.Attrs.First("mail") ||
		len(kids.Entries) != 1 || kids.Entries[0].Attrs.First("mail") != "u12@gmd.de" {
		tb.Fatalf("read %+v, then listed %v", read, kids.Entries)
	}

	refuse(MethodAdd, Entry{DN: MustParseDN("o=mocca")}, ErrEntryExists)
	refuse(MethodAdd, Entry{DN: MustParseDN("ou=unit01,o=elsewhere")}, ErrNoParent)
	refuse(MethodModify, modifyReq{DN: "o=mocca", Mods: []Modification{{Op: "rename", Attr: "o"}}}, errors.New("unknown modification op"))
	refuse(MethodDelete, dnReq{DN: "o=mocca"}, ErrHasChildren)
	refuse(MethodRead, dnReq{DN: person.DN.String()}, ErrNoSuchEntry)
	refuse(MethodList, dnReq{DN: person.DN.String()}, ErrNoSuchEntry)
	return bodies
}

// TestSearchBodiesAreBinary: on a real search, and on every administrative
// operation beside it, every body, request and reply, is a binary one or the
// empty body of a message with nothing to say.
func TestSearchBodiesAreBinary(t *testing.T) {
	_, _, bodies := searchRound(t)
	if len(bodies[MethodSearch]) != 8 || len(bodies) != 1 {
		t.Fatalf("the round put %d %s bodies on the wire", len(bodies[MethodSearch]), MethodSearch)
	}
	maps.Copy(bodies, adminRound(t))
	for _, method := range []string{MethodSearch, MethodRead, MethodAdd, MethodModify, MethodList, MethodDelete} {
		if len(bodies[method]) < 2 {
			t.Fatalf("the rounds put %d %s bodies on the wire", len(bodies[method]), method)
		}
		for _, b := range bodies[method] {
			if len(b) > 0 && b[0] < 0x80 {
				t.Fatalf("%s body opens with %#x: %q", method, b[0], b)
			}
		}
	}
}

// FuzzDirectoryBodies: whatever bytes arrive, a decoder either refuses them
// or yields a message that encodes and decodes back to itself.
func FuzzDirectoryBodies(f *testing.F) {
	_, _, bodies := searchRound(f)
	maps.Copy(bodies, adminRound(f))
	for _, list := range bodies {
		for _, b := range list {
			f.Add(b)
		}
	}
	for _, c := range bodyCases() {
		f.Add(c.Encode(f))
	}
	wiretest.Fuzz(f, []wiretest.Case{wiretest.Of("searchReq", searchReq{}), wiretest.Of("searchResp", searchResp{}),
		wiretest.Of("entry", Entry{}), wiretest.Of("dnReq", dnReq{}), wiretest.Of("modifyReq", modifyReq{}),
	})
}
