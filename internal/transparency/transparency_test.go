package transparency

import (
	"errors"
	"strings"
	"testing"

	"mocca/internal/odp"
	"mocca/internal/org"
)

func TestSelectorDefaultsAndTailoring(t *testing.T) {
	s := NewSelector()
	// Defaults provide all four CSCW transparencies.
	m := s.For("anyone")
	for _, tr := range odp.CSCWTransparencies() {
		if !m.Has(tr) {
			t.Fatalf("default mask missing %v", tr)
		}
	}
	// A user deselects time transparency.
	s.Disable("ada", odp.Time)
	if s.For("ada").Has(odp.Time) {
		t.Fatal("Disable had no effect")
	}
	if !s.For("ben").Has(odp.Time) {
		t.Fatal("Disable leaked to other principals")
	}
	s.Enable("ada", odp.Time)
	if !s.For("ada").Has(odp.Time) {
		t.Fatal("Enable had no effect")
	}
	// Wholesale replacement.
	s.Set("carol", odp.MaskOf(odp.View))
	if s.For("carol").Has(odp.Time) || !s.For("carol").Has(odp.View) {
		t.Fatal("Set wrong")
	}
	// Default change affects untailored principals only.
	s.SetDefault(0)
	if s.For("ben").Has(odp.Time) {
		t.Fatal("new default not applied")
	}
	if !s.For("ada").Has(odp.Time) {
		t.Fatal("tailored principal overridden by default change")
	}
}

func newOrgKB(t *testing.T) *org.KnowledgeBase {
	t.Helper()
	kb := org.NewKnowledgeBase()
	for _, id := range []string{"gmd", "upc", "rival"} {
		if err := kb.AddObject(org.Object{ID: id, Kind: org.KindOrg}); err != nil {
			t.Fatal(err)
		}
	}
	kb.SetPolicy("gmd", "data-sharing", "open")
	kb.SetPolicy("upc", "data-sharing", "open")
	kb.SetPolicy("rival", "data-sharing", "closed")
	return kb
}

func TestResolveOrg(t *testing.T) {
	sel := NewSelector()
	kb := newOrgKB(t)

	// Same org: always seamless.
	v, err := ResolveOrg(sel, kb, "prinz", "gmd", "gmd")
	if err != nil || !v.Visible || v.Annotation != "" {
		t.Fatalf("same-org view = %+v, %v", v, err)
	}
	// Cross-org with transparency ON (default): seamless.
	v, err = ResolveOrg(sel, kb, "prinz", "gmd", "upc")
	if err != nil || !v.Visible || v.Annotation != "" {
		t.Fatalf("transparent cross-org = %+v, %v", v, err)
	}
	// Cross-org with transparency OFF: visible, but annotated.
	sel.Disable("prinz", odp.Organisation)
	v, err = ResolveOrg(sel, kb, "prinz", "gmd", "upc")
	if err != nil || !v.Visible || v.Annotation == "" {
		t.Fatalf("opaque cross-org = %+v, %v", v, err)
	}
	// Incompatible policies block regardless of transparency.
	if _, err := ResolveOrg(sel, kb, "prinz", "gmd", "rival"); !errors.Is(err, ErrOrgBoundary) {
		t.Fatalf("incompatible orgs err = %v", err)
	}
	sel.Enable("prinz", odp.Organisation)
	if _, err := ResolveOrg(sel, kb, "prinz", "gmd", "rival"); !errors.Is(err, ErrOrgBoundary) {
		t.Fatal("transparency hid a policy block")
	}
}

type routerFixture struct {
	sel      *Selector
	online   map[string]bool
	syncLog  []string
	asyncLog []string
	router   *TimeRouter
}

func newRouterFixture() *routerFixture {
	f := &routerFixture{sel: NewSelector(), online: map[string]bool{}}
	f.router = &TimeRouter{
		Selector: f.sel,
		Presence: func(u string) bool { return f.online[u] },
		Sync: func(u string, p any) error {
			f.syncLog = append(f.syncLog, u)
			return nil
		},
		Async: func(u string, p any) error {
			f.asyncLog = append(f.asyncLog, u)
			return nil
		},
	}
	return f
}

func TestTimeRouterOnline(t *testing.T) {
	f := newRouterFixture()
	f.online["ben"] = true
	mode, err := f.router.Route("ada", "ben", "hello")
	if err != nil || mode != ModeSync {
		t.Fatalf("route = %v, %v", mode, err)
	}
	if len(f.syncLog) != 1 || len(f.asyncLog) != 0 {
		t.Fatalf("logs = %v %v", f.syncLog, f.asyncLog)
	}
}

func TestTimeRouterOfflineWithTransparency(t *testing.T) {
	f := newRouterFixture()
	mode, err := f.router.Route("ada", "ben", "hello")
	if err != nil || mode != ModeAsync {
		t.Fatalf("route = %v, %v", mode, err)
	}
	if len(f.asyncLog) != 1 {
		t.Fatalf("async log = %v", f.asyncLog)
	}
}

func TestTimeRouterOfflineWithoutTransparency(t *testing.T) {
	// The ablation the paper implies: without temporal transparency,
	// synchronous/asynchronous integration fails for offline recipients.
	f := newRouterFixture()
	f.sel.Disable("ada", odp.Time)
	_, err := f.router.Route("ada", "ben", "hello")
	if !errors.Is(err, ErrRecipientOffline) {
		t.Fatalf("err = %v, want ErrRecipientOffline", err)
	}
	if len(f.asyncLog) != 0 {
		t.Fatal("async delivery despite transparency off")
	}
}

func TestFilterView(t *testing.T) {
	sel := NewSelector()
	fields := map[string]string{
		"title":       "report",
		"view:zoom":   "150%",
		"view:cursor": "12,4",
		"body":        "text",
	}
	// Transparency on (default): view state hidden.
	got := FilterView(sel, "ada", fields)
	if len(got) != 2 || got["title"] != "report" {
		t.Fatalf("filtered = %v", got)
	}
	// WYSIWIS application turns view transparency off: sees everything.
	sel.Disable("wysiwis-app", odp.View)
	got = FilterView(sel, "wysiwis-app", fields)
	if len(got) != 4 {
		t.Fatalf("unfiltered = %v", got)
	}
	// Original map untouched.
	if len(fields) != 4 {
		t.Fatal("FilterView mutated input")
	}
}

func TestActivityFilter(t *testing.T) {
	sel := NewSelector()
	memberOf := []string{"act-1", "act-2"}
	// Transparency on: unrelated activities invisible.
	if !ActivityFilter(sel, "ada", memberOf, "act-1") {
		t.Fatal("own activity filtered")
	}
	if ActivityFilter(sel, "ada", memberOf, "act-99") {
		t.Fatal("unrelated activity visible with transparency on")
	}
	if !ActivityFilter(sel, "ada", memberOf, "") {
		t.Fatal("environment event filtered")
	}
	// Admin turns activity transparency off to monitor everything.
	sel.Disable("admin", odp.Activity)
	if !ActivityFilter(sel, "admin", nil, "act-99") {
		t.Fatal("admin cannot see unrelated activity with transparency off")
	}
}

func TestFilterReplica(t *testing.T) {
	sel := NewSelector()
	meta := ReplicaMeta{Site: "upc", Writer: "gmd", Version: "gmd:2 upc:1"}
	fields := map[string]string{"title": "doc"}

	// Default posture: replication transparency selected — one space.
	out := FilterReplica(sel, "ada", meta, fields)
	if len(out) != 1 || out["title"] != "doc" {
		t.Fatalf("transparent read altered fields: %v", out)
	}

	// Deselecting replication transparency surfaces the distribution.
	sel.Disable("ada", odp.Replication)
	out = FilterReplica(sel, "ada", meta, fields)
	if out[ReplicaSiteField] != "upc" || out[ReplicaWriterField] != "gmd" ||
		out[ReplicaVersionField] != "gmd:2 upc:1" {
		t.Fatalf("annotations missing: %v", out)
	}
	if fields[ReplicaSiteField] != "" {
		t.Fatal("FilterReplica mutated the caller's fields")
	}

	// The annotations are view-prefixed, so view transparency hides them.
	if !strings.HasPrefix(ReplicaSiteField, ViewPrefix) {
		t.Fatal("replica annotations must be view fields")
	}
	hidden := FilterView(sel, "ben", out)
	if _, ok := hidden[ReplicaSiteField]; ok {
		t.Fatal("view transparency did not hide replica annotations")
	}
}
