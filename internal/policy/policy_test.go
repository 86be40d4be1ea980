package policy

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func newEngineWithActions(t *testing.T) (*Engine, *[]string) {
	t.Helper()
	e := NewEngine()
	var log []string
	e.RegisterAction("notify", func(ev Event, args map[string]string) error {
		log = append(log, "notify:"+ev.Kind+":"+args["channel"])
		return nil
	}, true)
	e.RegisterAction("archive", func(ev Event, args map[string]string) error {
		log = append(log, "archive:"+ev.Attr("id"))
		return nil
	}, true)
	e.RegisterAction("purge", func(ev Event, args map[string]string) error {
		log = append(log, "purge")
		return nil
	}, false) // developer-only
	e.RegisterAction("fail", func(ev Event, args map[string]string) error {
		return errors.New("boom")
	}, true)
	return e, &log
}

func TestBasicDispatch(t *testing.T) {
	e, log := newEngineWithActions(t)
	err := e.AddRule(Rule{
		Name:       "mail-popup",
		On:         "mhs.delivered",
		Condition:  AttrEq("priority", "urgent"),
		ActionName: "notify",
		Args:       map[string]string{"channel": "popup"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := e.Dispatch(Event{Kind: "mhs.delivered", Attrs: map[string]string{"priority": "urgent"}})
	if n != 1 || len(*log) != 1 || (*log)[0] != "notify:mhs.delivered:popup" {
		t.Fatalf("fired %d, log %v", n, *log)
	}
	// Non-matching condition.
	n = e.Dispatch(Event{Kind: "mhs.delivered", Attrs: map[string]string{"priority": "normal"}})
	if n != 0 {
		t.Fatalf("fired %d for non-matching event", n)
	}
	// Non-matching kind.
	n = e.Dispatch(Event{Kind: "rtc.joined"})
	if n != 0 {
		t.Fatalf("fired %d for wrong kind", n)
	}
}

func TestWildcardAndPriorityOrder(t *testing.T) {
	e, log := newEngineWithActions(t)
	if err := e.AddRule(Rule{Name: "low", On: "*", ActionName: "archive", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{Name: "high", On: "*", ActionName: "notify", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	e.Dispatch(Event{Kind: "anything", Attrs: map[string]string{"id": "7"}})
	if len(*log) != 2 || (*log)[0][:6] != "notify" || (*log)[1] != "archive:7" {
		t.Fatalf("order = %v", *log)
	}
}

func TestUserLevelActionRestrictions(t *testing.T) {
	e, _ := newEngineWithActions(t)
	err := e.AddRule(Rule{Name: "u1", On: "x", ActionName: "purge", Author: LevelUser})
	if !errors.Is(err, ErrActionDenied) {
		t.Fatalf("user purge rule: %v", err)
	}
	if err := e.AddRule(Rule{Name: "u2", On: "x", ActionName: "notify", Author: LevelUser}); err != nil {
		t.Fatalf("user notify rule: %v", err)
	}
	// Developers may use anything.
	if err := e.AddRule(Rule{Name: "d1", On: "x", ActionName: "purge", Author: LevelDeveloper}); err != nil {
		t.Fatal(err)
	}
}

func TestEnableDisableRemove(t *testing.T) {
	e, log := newEngineWithActions(t)
	if err := e.AddRule(Rule{Name: "r", On: "x", ActionName: "notify"}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEnabled("r", false); err != nil {
		t.Fatal(err)
	}
	e.Dispatch(Event{Kind: "x"})
	if len(*log) != 0 {
		t.Fatal("disabled rule fired")
	}
	if err := e.SetEnabled("r", true); err != nil {
		t.Fatal(err)
	}
	e.Dispatch(Event{Kind: "x"})
	if len(*log) != 1 {
		t.Fatal("re-enabled rule did not fire")
	}
	if err := e.RemoveRule("r"); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveRule("r"); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("double remove: %v", err)
	}
}

// TestDispatchWithoutRulesOnlyCounts: an engine nobody tailored counts the
// event and does nothing else; the first rule turns matching back on.
func TestDispatchWithoutRulesOnlyCounts(t *testing.T) {
	e, log := newEngineWithActions(t)
	if e.HasRules() {
		t.Fatal("a new engine reports rules")
	}
	if fired := e.Dispatch(Event{Kind: "x"}); fired != 0 {
		t.Fatalf("fired %d rules of none", fired)
	}
	if n := testing.AllocsPerRun(100, func() { e.Dispatch(Event{Kind: "x"}) }); n != 0 {
		t.Errorf("Dispatch without rules allocates %.0f times", n)
	}
	if err := e.AddRule(Rule{Name: "r", On: "x", ActionName: "notify"}); err != nil {
		t.Fatal(err)
	}
	if !e.HasRules() || e.Dispatch(Event{Kind: "x"}) != 1 || len(*log) != 1 {
		t.Fatalf("the first rule did not fire: %v", *log)
	}
	if st := e.Stats(); st.Dispatched != 103 || st.Fired != 1 || len(e.Trace()) != 1 {
		t.Fatalf("stats = %+v, trace = %v", st, e.Trace())
	}
}

func TestActionErrorsAreContained(t *testing.T) {
	e, _ := newEngineWithActions(t)
	if err := e.AddRule(Rule{Name: "bad", On: "x", ActionName: "fail"}); err != nil {
		t.Fatal(err)
	}
	n := e.Dispatch(Event{Kind: "x"})
	if n != 1 {
		t.Fatalf("fired = %d", n)
	}
	st := e.Stats()
	if st.Errors != 1 || st.Fired != 1 {
		t.Fatalf("stats = %+v", st)
	}
	trace := e.Trace()
	if len(trace) != 1 || trace[0].Err == nil {
		t.Fatalf("trace = %+v", trace)
	}
}

func TestDuplicateAndUnknownAction(t *testing.T) {
	e, _ := newEngineWithActions(t)
	if err := e.AddRule(Rule{Name: "r", On: "x", ActionName: "notify"}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{Name: "r", On: "x", ActionName: "notify"}); !errors.Is(err, ErrRuleExists) {
		t.Fatalf("dup: %v", err)
	}
	if err := e.AddRule(Rule{Name: "r2", On: "x", ActionName: "ghost"}); !errors.Is(err, ErrUnknownAction) {
		t.Fatalf("ghost action: %v", err)
	}
}

func TestConditions(t *testing.T) {
	ev := Event{Kind: "k", Attrs: map[string]string{"a": "hello world", "b": "2"}}
	tests := []struct {
		cond Condition
		want bool
	}{
		{True(), true},
		{AttrEq("a", "hello world"), true},
		{AttrEq("a", "x"), false},
		{AttrNe("a", "x"), true},
		{AttrContains("a", "lo wo"), true},
		{AttrContains("a", "xyz"), false},
		{AllOf(AttrEq("b", "2"), AttrContains("a", "hello")), true},
		{AllOf(AttrEq("b", "2"), AttrEq("a", "no")), false},
		{AttrEq("missing", ""), true}, // absent attr reads as ""
	}
	for _, tt := range tests {
		if got := tt.cond.Eval(ev); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.cond, got, tt.want)
		}
	}
}

func TestParseRuleNotation(t *testing.T) {
	text := `rule urgent-mail priority 10
on mhs.delivered
when priority == urgent and folder != spam
do notify channel=popup`
	r, err := ParseRule(text, LevelUser)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "urgent-mail" || r.Priority != 10 || r.On != "mhs.delivered" || r.ActionName != "notify" {
		t.Fatalf("parsed = %+v", r)
	}
	if r.Args["channel"] != "popup" {
		t.Fatalf("args = %v", r.Args)
	}
	if !r.Condition.Eval(Event{Kind: "mhs.delivered", Attrs: map[string]string{"priority": "urgent", "folder": "inbox"}}) {
		t.Fatal("condition should match")
	}
	if r.Condition.Eval(Event{Kind: "mhs.delivered", Attrs: map[string]string{"priority": "urgent", "folder": "spam"}}) {
		t.Fatal("condition should reject spam folder")
	}
}

func TestParseRuleSemicolonsAndQuotes(t *testing.T) {
	r, err := ParseRule(`rule q; on ev; when subject contains "project review"; do archive`, LevelDeveloper)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Condition.Eval(Event{Kind: "ev", Attrs: map[string]string{"subject": "the project review friday"}}) {
		t.Fatal("quoted substring condition failed")
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"",
		"on x; do a",                      // missing rule
		"rule r; do a",                    // missing on
		"rule r; on x",                    // missing do
		"rule r; on x; when a ~ b; do n",  // bad operator
		"rule r; on x; when a ==; do n",   // incomplete condition
		"rule r; on x; do n badarg",       // malformed arg
		"rule r priority abc; on x; do n", // bad priority
		"rule r; on x y; do n",            // extra token in on
		"rule r; banana; do n",            // unknown clause
	}
	for _, text := range bad {
		if _, err := ParseRule(text, LevelDeveloper); !errors.Is(err, ErrBadRule) {
			t.Errorf("ParseRule(%q) err = %v, want ErrBadRule", text, err)
		}
	}
}

func TestInstallRuleText(t *testing.T) {
	e, log := newEngineWithActions(t)
	name, err := e.InstallRuleText("rule auto-archive; on info.put; do archive", LevelUser)
	if err != nil {
		t.Fatal(err)
	}
	if name != "auto-archive" {
		t.Fatalf("name = %q", name)
	}
	e.Dispatch(Event{Kind: "info.put", Attrs: map[string]string{"id": "42"}})
	if len(*log) != 1 || (*log)[0] != "archive:42" {
		t.Fatalf("log = %v", *log)
	}
	// User rules with privileged actions rejected at install.
	if _, err := e.InstallRuleText("rule p; on x; do purge", LevelUser); !errors.Is(err, ErrActionDenied) {
		t.Fatalf("user purge: %v", err)
	}
}

func TestQuickParseNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_, _ = ParseRule(s, LevelUser)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceBounded(t *testing.T) {
	e, _ := newEngineWithActions(t)
	if err := e.AddRule(Rule{Name: "r", On: "*", ActionName: "notify"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		e.Dispatch(Event{Kind: fmt.Sprintf("k%d", i)})
	}
	if n := len(e.Trace()); n != 512 {
		t.Fatalf("trace len = %d, want cap 512", n)
	}
}
