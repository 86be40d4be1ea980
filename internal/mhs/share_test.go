package mhs

import (
	"sync"
	"testing"
)

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of its Puts, so allocation counts are not held there.
var raceEnabled bool

// TestSendCopiesNoEnvelope: a message is built once by Send and stored as
// it is, and a relay for a domain that holds some of its recipients
// leaves with a shallow copy carrying its own recipient list. A message to
// a local recipient runs no layer below the MTA, so its count is pinned:
// the envelope, its recipient list, its id, its trace, the store entry and
// the domain's name. The relay's copy is measured as a difference, which
// the rpc, channel and netsim costs of the transfer leave alone: a local
// recipient added to a remote message costs its store entry and the
// relay's copy and list, no more than a local message does. Putting back
// a copy at Send or at the local delivery breaks the pin, and a full copy
// at the relay breaks the difference.
func TestSendCopiesNoEnvelope(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not held under -race")
	}
	f := newMHSFixture(t)
	cost := func(to ...ORName) float64 {
		send := func() {
			if _, err := f.prinz.Send(to, "s", "b"); err != nil {
				t.Fatal(err)
			}
			f.clk.RunUntilIdle()
		}
		send() // routes, bindings and pools warm up
		return testing.AllocsPerRun(100, send)
	}
	const pinned = 6
	local := cost(f.klaus.Name)
	if local > pinned {
		t.Fatalf("a message to a local recipient allocates %v times, want at most %v", local, pinned)
	}
	remote := cost(f.navarro.Name)
	if both := cost(f.klaus.Name, f.navarro.Name); both-remote > local {
		t.Fatalf("a local recipient added to a remote message costs %v allocations (%v against %v), more than a local message's %v",
			both-remote, both, remote, local)
	}
}

// TestStoredEnvelopeIsShared: the local recipients' store entries hold the
// envelope the MTA processed, one for all of them, naming every recipient.
func TestStoredEnvelopeIsShared(t *testing.T) {
	f := newMHSFixture(t)
	if _, err := f.prinz.Send([]ORName{f.klaus.Name, f.prinz.Name, f.navarro.Name}, "s", "b"); err != nil {
		t.Fatal(err)
	}
	f.clk.RunUntilIdle()
	klaus, _ := f.klaus.List()
	prinz, _ := f.prinz.List()
	if len(klaus) != 1 || len(prinz) != 1 {
		t.Fatalf("klaus holds %d entries, prinz %d; want 1 and 1", len(klaus), len(prinz))
	}
	if klaus[0].Envelope != prinz[0].Envelope {
		t.Fatal("the local recipients of one message hold copies of its envelope")
	}
	if got := klaus[0].Envelope.Recipients; len(got) != 3 {
		t.Fatalf("the stored envelope names %d recipients, want all 3", len(got))
	}
}

// TestStoredEnvelopeReadBesideRelay: watchers read a stored envelope on
// their own goroutines while the MTA goes on to relay it to a remote
// recipient and expand a list; under -race an edit of the shared envelope
// after its delivery fails here.
func TestStoredEnvelopeReadBesideRelay(t *testing.T) {
	f := newMHSFixture(t)
	if err := f.gmd.CreateDL("team", f.klaus.Name, f.navarro.Name); err != nil {
		t.Fatal(err)
	}
	team := MustParseORName("pn=team;o=gmd;c=de")
	var wg sync.WaitGroup
	f.gmd.Watch(func(_ ORName, msg *StoredMessage) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := msg.Envelope.AppendBinary(nil); err != nil {
				t.Error(err)
			}
		}()
	})
	for i := 0; i < 20; i++ {
		if _, err := f.prinz.Send([]ORName{f.klaus.Name, f.navarro.Name, team}, "s", "b", WithHeader("k", "v")); err != nil {
			t.Fatal(err)
		}
		f.clk.RunUntilIdle()
	}
	wg.Wait()
	if n := f.klaus.Unread(); n != 40 {
		t.Fatalf("klaus holds %d messages, want 40", n)
	}
}
