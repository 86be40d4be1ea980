package activity

import (
	"errors"
	"fmt"
	"testing"

	"mocca/internal/netsim"
	"mocca/internal/vclock"
)

func newRegistry(t *testing.T) (*Registry, *vclock.Simulated) {
	t.Helper()
	clk := vclock.NewSimulated(netsim.DefaultEpoch)
	return NewRegistry(clk), clk
}

func TestLifecycle(t *testing.T) {
	r, _ := newRegistry(t)
	a, err := r.Create("ada", "progress meetings", "weekly review")
	if err != nil {
		t.Fatal(err)
	}
	if a.State != StateProposed || a.Coordinator != "ada" {
		t.Fatalf("created = %+v", a)
	}
	steps := []State{StateActive, StateSuspended, StateActive, StateCompleted}
	for _, s := range steps {
		if err := r.Transition("ada", a.ID, s); err != nil {
			t.Fatalf("to %s: %v", s, err)
		}
	}
	got, _ := r.Get(a.ID)
	if got.State != StateCompleted || got.Progress != 100 {
		t.Fatalf("final = %+v", got)
	}
	// Terminal state: no further transitions.
	if err := r.Transition("ada", a.ID, StateActive); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("transition from terminal: %v", err)
	}
}

func TestInvalidTransitions(t *testing.T) {
	r, _ := newRegistry(t)
	a, _ := r.Create("ada", "x", "")
	if err := r.Transition("ada", a.ID, StateSuspended); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("proposed->suspended: %v", err)
	}
	if err := r.Transition("ada", a.ID, StateCompleted); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("proposed->completed: %v", err)
	}
	if err := r.Transition("ada", "ghost", StateActive); !errors.Is(err, ErrUnknownActivity) {
		t.Fatalf("ghost: %v", err)
	}
}

func TestMembership(t *testing.T) {
	r, _ := newRegistry(t)
	a, _ := r.Create("ada", "reports", "")
	if err := r.Join(a.ID, "ben", "author"); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(a.ID, "carol", ""); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(a.ID)
	if len(got.Members) != 3 || got.Members["ben"] != "author" || got.Members["carol"] != "participant" {
		t.Fatalf("members = %v", got.Members)
	}
	if err := r.Join("ghost", "ben", ""); !errors.Is(err, ErrUnknownActivity) {
		t.Fatalf("join ghost: %v", err)
	}
}

func TestProgressMembersOnly(t *testing.T) {
	r, _ := newRegistry(t)
	a, _ := r.Create("ada", "x", "")
	if err := r.SetProgress("stranger", a.ID, 50); !errors.Is(err, ErrNotMember) {
		t.Fatalf("stranger progress: %v", err)
	}
	if err := r.SetProgress("ada", a.ID, 150); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(a.ID)
	if got.Progress != 100 {
		t.Fatalf("progress clamped to %d", got.Progress)
	}
}

func TestFinishStartBlocksActivation(t *testing.T) {
	r, _ := newRegistry(t)
	design, _ := r.Create("ada", "design", "")
	build, _ := r.Create("ada", "build", "")
	if err := r.DependOn(build.ID, design.ID); err != nil {
		t.Fatal(err)
	}
	// build cannot start while design is incomplete.
	if err := r.Transition("ada", build.ID, StateActive); !errors.Is(err, ErrBlocked) {
		t.Fatalf("blocked activation: %v", err)
	}
	if err := r.Transition("ada", design.ID, StateActive); err != nil {
		t.Fatal(err)
	}
	if err := r.Transition("ada", design.ID, StateCompleted); err != nil {
		t.Fatal(err)
	}
	if err := r.Transition("ada", build.ID, StateActive); err != nil {
		t.Fatalf("activation after prerequisite completed: %v", err)
	}
}

func TestUnblockedEvent(t *testing.T) {
	r, _ := newRegistry(t)
	var unblocked []string
	r.Subscribe(func(ev Event) {
		if ev.Kind == EventUnblocked {
			unblocked = append(unblocked, ev.Activity.Name)
		}
	})
	design, _ := r.Create("ada", "design", "")
	build, _ := r.Create("ada", "build", "")
	review, _ := r.Create("ada", "review", "")
	_ = r.DependOn(build.ID, design.ID)
	_ = r.DependOn(build.ID, review.ID)
	_ = r.Transition("ada", design.ID, StateActive)
	_ = r.Transition("ada", design.ID, StateCompleted)
	if len(unblocked) != 0 {
		t.Fatalf("unblocked too early: %v", unblocked)
	}
	_ = r.Transition("ada", review.ID, StateActive)
	_ = r.Transition("ada", review.ID, StateCompleted)
	if len(unblocked) != 1 || unblocked[0] != "build" {
		t.Fatalf("unblocked = %v", unblocked)
	}
}

func TestDependencyCycleRejected(t *testing.T) {
	r, _ := newRegistry(t)
	a, _ := r.Create("x", "a", "")
	b, _ := r.Create("x", "b", "")
	c, _ := r.Create("x", "c", "")
	if err := r.DependOn(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.DependOn(b.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.DependOn(c.ID, a.ID); !errors.Is(err, ErrDepCycle) {
		t.Fatalf("cycle: %v", err)
	}
	if err := r.DependOn(a.ID, a.ID); !errors.Is(err, ErrDepCycle) {
		t.Fatalf("self-dep: %v", err)
	}
}

func TestSharedResourceDependency(t *testing.T) {
	r, _ := newRegistry(t)
	boring, _ := r.Create("ada", "boring", "")
	lining, _ := r.Create("ben", "lining", "")
	if err := r.UseResource(boring.ID, "tbm-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.UseResource(lining.ID, "tbm-1"); err != nil {
		t.Fatal(err)
	}
	deps := r.Dependencies(lining.ID)
	if len(deps) != 1 || deps[0].Kind != DepSharesResource || deps[0].To != boring.ID || deps[0].Detail != "tbm-1" {
		t.Fatalf("deps = %v", deps)
	}
	// Symmetric edge exists too.
	back := r.Dependencies(boring.ID)
	if len(back) != 1 || back[0].To != lining.ID {
		t.Fatalf("back deps = %v", back)
	}
}

func TestSchedule(t *testing.T) {
	r, _ := newRegistry(t)
	// survey <- design <- build; report independent.
	survey, _ := r.Create("x", "survey", "")
	design, _ := r.Create("x", "design", "")
	build, _ := r.Create("x", "build", "")
	report, _ := r.Create("x", "report", "")
	_ = r.DependOn(design.ID, survey.ID)
	_ = r.DependOn(build.ID, design.ID)

	order, err := r.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, aid := range order {
		pos[aid] = i
	}
	if !(pos[survey.ID] < pos[design.ID] && pos[design.ID] < pos[build.ID]) {
		t.Fatalf("order = %v", order)
	}
	if _, ok := pos[report.ID]; !ok {
		t.Fatal("independent activity missing from schedule")
	}
}

func TestResponsibilityNegotiation(t *testing.T) {
	r, _ := newRegistry(t)
	a, _ := r.Create("ada", "x", "")
	_ = r.Join(a.ID, "ben", "")

	neg, err := r.Propose("ada", a.ID, NegResponsibility, "ben", "")
	if err != nil {
		t.Fatal(err)
	}
	// Only the responder may answer.
	if _, err := r.Accept("ada", neg.ID); !errors.Is(err, ErrNotResponder) {
		t.Fatalf("proposer accepted own proposal: %v", err)
	}
	if _, err := r.Accept("ben", neg.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(a.ID)
	if got.Coordinator != "ben" || got.Members["ben"] != "coordinator" || got.Members["ada"] != "participant" {
		t.Fatalf("after handover = %+v", got)
	}
	// Closed negotiations cannot be re-answered.
	if _, err := r.Accept("ben", neg.ID); !errors.Is(err, ErrNegotiationClosed) {
		t.Fatalf("double accept: %v", err)
	}
}

func TestCompetenceNegotiation(t *testing.T) {
	r, _ := newRegistry(t)
	a, _ := r.Create("ada", "report", "")
	_ = r.Join(a.ID, "ben", "")
	neg, err := r.Propose("ada", a.ID, NegCompetence, "ben", "statistics-chapter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Accept("ben", neg.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(a.ID)
	if got.Members["ben"] != "competent:statistics-chapter" {
		t.Fatalf("competence not recorded: %v", got.Members)
	}
}

func TestProposeRequiresMembers(t *testing.T) {
	r, _ := newRegistry(t)
	a, _ := r.Create("ada", "x", "")
	if _, err := r.Propose("ada", a.ID, NegResponsibility, "stranger", ""); !errors.Is(err, ErrNotMember) {
		t.Fatalf("propose to stranger: %v", err)
	}
	if _, err := r.Propose("stranger", a.ID, NegResponsibility, "ada", ""); !errors.Is(err, ErrNotMember) {
		t.Fatalf("propose by stranger: %v", err)
	}
}

func TestEventStream(t *testing.T) {
	r, _ := newRegistry(t)
	var kinds []EventKind
	r.Subscribe(func(ev Event) { kinds = append(kinds, ev.Kind) })
	a, _ := r.Create("ada", "x", "")
	_ = r.Join(a.ID, "ben", "")
	_ = r.Transition("ada", a.ID, StateActive)
	_ = r.SetProgress("ben", a.ID, 40)
	want := fmt.Sprint([]EventKind{EventCreated, EventJoined, EventTransition, EventProgress})
	if fmt.Sprint(kinds) != want {
		t.Fatalf("events = %v", kinds)
	}
}

func TestScheduleManyActivities(t *testing.T) {
	r, _ := newRegistry(t)
	// A chain of 100 activities must schedule in chain order.
	var ids []string
	for i := 0; i < 100; i++ {
		a, _ := r.Create("x", fmt.Sprintf("a%02d", i), "")
		ids = append(ids, a.ID)
		if i > 0 {
			if err := r.DependOn(a.ID, ids[i-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	order, err := r.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, aid := range order {
		pos[aid] = i
	}
	for i := 1; i < len(ids); i++ {
		if pos[ids[i-1]] > pos[ids[i]] {
			t.Fatalf("chain order violated at %d", i)
		}
	}
}
