// Package integration_test exercises cross-module scenarios end-to-end on
// the full simulated stack, including injected failures: partitions during
// store-and-forward delivery, conference-server recovery, and tailoring
// rules that span models.
package integration_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mocca"
	"mocca/internal/activity"
	"mocca/internal/comm"
	"mocca/internal/directory"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/org"
	"mocca/internal/policy"
	"mocca/internal/rpc"
	"mocca/internal/transparency"
)

// TestFullStackScenario runs the paper's world: three organisations, a
// moderated conference, a digest to the absent member, an org-governed
// trader, and the directory export — all on one simulated deployment.
func TestFullStackScenario(t *testing.T) {
	dep := mocca.NewDeployment(mocca.WithSeed(1992))
	env := dep.Env()

	gmd := dep.AddSite("gmd", "gmd.de")
	upc := dep.AddSite("upc", "upc.es")
	lancs := dep.AddSite("lancs", "lancs.uk")
	_ = gmd.AddUser("prinz")
	navarroUA := upc.AddUser("navarro")
	_ = lancs.AddUser("rodden")

	// Organisational model + policies.
	for _, o := range []org.Object{
		{ID: "gmd", Kind: org.KindOrg, Name: "GMD"},
		{ID: "upc", Kind: org.KindOrg, Name: "UPC"},
		{ID: "lancs", Kind: org.KindOrg, Name: "Lancaster"},
		{ID: "prinz", Kind: org.KindPerson, Name: "Prinz", Org: "gmd"},
		{ID: "navarro", Kind: org.KindPerson, Name: "Navarro", Org: "upc"},
	} {
		if err := env.Org().AddObject(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"gmd", "upc", "lancs"} {
		env.Org().SetPolicy(id, "data-sharing", "open")
	}
	if err := env.SyncOrgToDirectory(); err != nil {
		t.Fatal(err)
	}

	// Synchronous meeting with one absent member.
	cid, err := dep.Conferencing().CreateConference("editorial", mocca.ConferenceModerated)
	if err != nil {
		t.Fatal(err)
	}
	prinzSess, err := dep.JoinConference(cid, "prinz")
	if err != nil {
		t.Fatal(err)
	}
	roddenSess, err := dep.JoinConference(cid, "rodden")
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(dep.Do(func() error { _, err := prinzSess.RequestFloor(); return err }))
	must(dep.Do(func() error { return prinzSess.Set("decision", "submit to ICDCS") }))
	must(dep.Do(prinzSess.ReleaseFloor))
	must(dep.Do(prinzSess.Leave))
	must(dep.Do(roddenSess.Leave))
	dep.Run()

	// Temporal transparency: navarro gets the digest by mail.
	sent, err := comm.BridgeConference(env.Hub(), dep.Conferencing(), cid,
		[]string{"prinz", "rodden", "navarro"}, "meeting:editorial")
	must(err)
	if sent != 1 {
		t.Fatalf("digests = %d", sent)
	}
	dep.Run()
	msgs, err := navarroUA.List()
	must(err)
	if len(msgs) != 1 || !strings.Contains(msgs[0].Envelope.Content.Body, "submit to ICDCS") {
		t.Fatalf("navarro digest = %+v", msgs)
	}

	// The directory has the org view.
	found, err := env.Directory().Search(directory.SearchRequest{
		Base:   directory.DN{},
		Scope:  directory.ScopeSubtree,
		Filter: directory.MustParseFilter("(objectclass=person)"),
	})
	must(err)
	if len(found) != 2 {
		t.Fatalf("directory persons = %d", len(found))
	}
}

// TestPartitionDuringBridgeHealsAndDelivers injects a partition between
// sites while the MHS is relaying; retries deliver after heal.
func TestPartitionDuringBridgeHealsAndDelivers(t *testing.T) {
	dep := mocca.NewDeployment(mocca.WithSeed(4))
	gmd := dep.AddSite("gmd", "gmd.de")
	upc := dep.AddSite("upc", "upc.es")
	prinz := gmd.AddUser("prinz")
	navarro := upc.AddUser("navarro")

	// Cut the inter-site link, send, and confirm non-delivery while cut.
	dep.Network().Partition(
		[]netsim.Address{"mta-gmd", "mcu", "user-prinz"},
		[]netsim.Address{"mta-upc", "user-navarro"},
	)
	if _, err := prinz.Send([]mocca.ORName{navarro.Name}, "during partition", "x"); err != nil {
		t.Fatal(err)
	}
	dep.Advance(6 * time.Second) // first transfer attempt times out
	if navarro.Unread() != 0 {
		t.Fatal("delivered across partition")
	}
	// Heal before the retry schedule is exhausted.
	dep.Network().Heal()
	dep.Run()
	if navarro.Unread() != 1 {
		t.Fatalf("unread after heal = %d", navarro.Unread())
	}
}

// TestConferenceServerCrashAndResync kills the MCU node mid-conference;
// after recovery both members' replicas reach the same state.
func TestConferenceServerCrashAndResync(t *testing.T) {
	dep := mocca.NewDeployment(mocca.WithSeed(5))
	cid, err := dep.Conferencing().CreateConference("resilient", mocca.ConferenceOpen)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dep.JoinConference(cid, "ada")
	if err != nil {
		t.Fatal(err)
	}
	b, err := dep.JoinConference(cid, "ben")
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Do(func() error { return a.Set("k", "before") }); err != nil {
		t.Fatal(err)
	}
	dep.Run()

	mcu, ok := dep.Network().Node("mcu")
	if !ok {
		t.Fatal("no mcu node")
	}
	mcu.SetDown(true)
	// Updates fail while the server is down.
	err = dep.Do(func() error { return a.Set("k", "during") })
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("update during crash: %v", err)
	}
	mcu.SetDown(false)
	// Server state survived (crash-recover with in-memory state in this
	// simulation); clients continue.
	if err := dep.Do(func() error { return a.Set("k", "after") }); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	if b.Get("k") != "after" || a.Get("k") != "after" {
		t.Fatalf("replicas diverged: a=%q b=%q", a.Get("k"), b.Get("k"))
	}
}

// TestTailoringRuleSpansModels installs a user rule that reacts to an
// activity completing by counting through a registered action — the
// tailorability toolkit automating across models.
func TestTailoringRuleSpansModels(t *testing.T) {
	dep := mocca.NewDeployment(mocca.WithSeed(6))
	env := dep.Env()

	completed := 0
	env.Policies().RegisterAction("tally", func(ev policy.Event, args map[string]string) error {
		if ev.Attr("state") == activity.StateCompleted.String() {
			completed++
		}
		return nil
	}, true)
	if _, err := env.Policies().InstallRuleText(
		"rule tally-completions; on activity.transition; do tally", policy.LevelUser); err != nil {
		t.Fatal(err)
	}

	act, err := env.Activities().Create("ada", "write tests", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Activities().Transition("ada", act.ID, activity.StateActive); err != nil {
		t.Fatal(err)
	}
	if err := env.Activities().Transition("ada", act.ID, activity.StateCompleted); err != nil {
		t.Fatal(err)
	}
	if completed != 1 {
		t.Fatalf("tally = %d", completed)
	}
}

// TestTransparencyGovernsHubEndToEnd shows the sender-side transparency
// mask controlling whether offline delivery degrades or fails, through the
// real hub and MHS.
func TestTransparencyGovernsHubEndToEnd(t *testing.T) {
	dep := mocca.NewDeployment(mocca.WithSeed(7))
	gmd := dep.AddSite("gmd", "gmd.de")
	_ = gmd.AddUser("prinz")
	klaus := gmd.AddUser("klaus")

	// Default: time transparency on; offline recipient gets async.
	mode, err := dep.Env().Hub().Send(mocca.Message{From: "prinz", To: "klaus", Subject: "s1"})
	if err != nil || mode != transparency.ModeAsync {
		t.Fatalf("mode=%v err=%v", mode, err)
	}
	dep.Run()
	if klaus.Unread() != 1 {
		t.Fatalf("unread = %d", klaus.Unread())
	}

	// User deselects time transparency: the same send now surfaces the
	// mode mismatch instead of silently degrading.
	dep.Env().Transparency().Set("prinz", 0)
	if _, err := dep.Env().Hub().Send(mocca.Message{From: "prinz", To: "klaus", Subject: "s2"}); !errors.Is(err, transparency.ErrRecipientOffline) {
		t.Fatalf("err = %v", err)
	}
}

// TestInformationVersionsMonotonic drives a random-ish op sequence and
// asserts version monotonicity and access soundness.
func TestInformationVersionsMonotonic(t *testing.T) {
	dep := mocca.NewDeployment(mocca.WithSeed(8))
	space := dep.Env().Space()
	obj, err := space.Put("ada", mocca.SharedSchemaName, map[string]string{"title": "v"})
	if err != nil {
		t.Fatal(err)
	}
	last := obj.Version
	for i := 0; i < 50; i++ {
		got, err := space.Get("ada", obj.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Version < last {
			t.Fatalf("version went backwards: %d < %d", got.Version, last)
		}
		updated, err := space.Update("ada", obj.ID, got.Version, map[string]string{"body": strings.Repeat("x", i%7)})
		if err != nil {
			if errors.Is(err, information.ErrSchemaViolation) {
				continue
			}
			t.Fatal(err)
		}
		if updated.Version != got.Version+1 {
			t.Fatalf("version skipped: %d -> %d", got.Version, updated.Version)
		}
		last = updated.Version
	}
	// Strangers still cannot read after all this activity.
	if _, err := space.Get("mallory", obj.ID); !errors.Is(err, information.ErrDenied) {
		t.Fatalf("mallory read: %v", err)
	}
}
