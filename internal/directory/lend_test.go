package directory

import (
	"fmt"
	"sync"
	"testing"
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of its Puts, so allocation counts are not held there.
var raceEnabled bool

// lendingDSA is a DSA over seedDIT's tree with four more people in
// ou=CSCW, so that "(objectclass=person)" under it matches six entries.
func lendingDSA(t *testing.T) *Server {
	t.Helper()
	d := seedDIT(t)
	for i := range 4 {
		cn := fmt.Sprintf("Guest%d", i)
		if err := d.Add(MustParseDN("cn="+cn+",ou=CSCW,o=GMD"), PersonEntry(cn, cn, cn+"@gmd.de")); err != nil {
			t.Fatal(err)
		}
	}
	return &Server{dit: d}
}

// TestSearchHandlerLendsEntries: the search handler answers with the DIT's
// own entries and encodes them as they are, so answering with six entries
// costs no clone of any; an Entry.Clone costs at least three allocations
// per entry (the entry, its DN and its attribute map), which the pinned
// count does not allow.
func TestSearchHandlerLendsEntries(t *testing.T) {
	s := lendingDSA(t)
	req := searchReq{Base: "ou=CSCW,o=GMD", Scope: int(ScopeSubtree), Filter: "(objectclass=person)"}
	resp, err := s.search(req)
	if err != nil || len(resp.Entries) != 6 {
		t.Fatalf("the search found %d entries, %v; want 6", len(resp.Entries), err)
	}
	for _, e := range resp.Entries {
		if e != s.dit.entries[e.DN.Normalized()] {
			t.Fatalf("entry %s was copied for a handler that only encodes it", e.DN)
		}
	}
	if raceEnabled {
		return // allocation counts are not held under -race
	}
	buf := make([]byte, 0, 4096)
	n := testing.AllocsPerRun(100, func() {
		answer, serr := s.search(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if buf, serr = answer.AppendBinary(buf[:0]); serr != nil {
			t.Fatal(serr)
		}
	})
	const pinned = 11
	if n > pinned {
		t.Fatalf("answering a search with six entries allocates %v times, want at most %v", n, pinned)
	}
}

// TestLentSearchAnswerBesideAdd: a lent answer is encoded while another
// goroutine adds entries to the tree; under -race an Add that edited a
// stored entry, or a search that handed out index storage, fails here.
func TestLentSearchAnswerBesideAdd(t *testing.T) {
	s := lendingDSA(t)
	req := searchReq{Base: "o=GMD", Scope: int(ScopeSubtree), Filter: "(objectclass=person)"}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 200 {
			cn := fmt.Sprintf("Late%d", i)
			if err := s.dit.Add(MustParseDN("cn="+cn+",ou=ODP,o=GMD"), PersonEntry(cn, cn, "")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var buf []byte
	for range 200 {
		resp, err := s.search(req)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = resp.AppendBinary(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestParseDNAllocatesOnlyItsRDNs: a DN without escapes parses into one
// allocation, its slice of RDNs, whose strings are substrings of the input.
func TestParseDNAllocatesOnlyItsRDNs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not held under -race")
	}
	s := "cn=Prinz,ou=cscw,o=gmd,c=de"
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseDN(s) }); n != 1 {
		t.Fatalf("ParseDN(%q) allocates %v times, want 1", s, n)
	}
}
