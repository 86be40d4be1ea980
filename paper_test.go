// The paper's claims as assertions. "Open CSCW Systems: Will ODP Help?" is
// a position paper without numeric tables, so each of its figures makes a
// structural claim, and each test below states one of them against the
// running environment:
//
//	Figure 1     one environment hosts an application in every time-space quadrant
//	Figures 2–3  N registrations with one shared representation replace N·(N−1) pairwise adapters
//	Figure 4     the CSCW environment is a thin layer over ODP that adds no wire cost
//	§6.1         transparencies are selected per principal, and a binding reads the selection
//	A1           time transparency bridges a synchronous sender to an offline recipient
//
// As in "Object-Based Groupware", the unit of cooperation is a shared
// object: each claim is checked by what one application or principal can
// do with an object another one made.
package mocca

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mocca/internal/channel"
	"mocca/internal/core"
	"mocca/internal/groupware"
	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/odp"
	"mocca/internal/trader"
	"mocca/internal/transparency"
	"mocca/internal/vclock"
)

// TestPaperFigure1: one environment hosts the four groupware applications,
// one per quadrant of the time-space matrix, and minutes written in the
// same-time/same-place meeting room are read by the
// different-time/different-place message system.
func TestPaperFigure1(t *testing.T) {
	dep := NewDeployment(WithSeed(1))
	env := dep.Env()
	room, err := groupware.NewMeetingRoom(env, dep.Conferencing())
	if err != nil {
		t.Fatal(err)
	}
	for _, register := range []func(*Environment) error{
		groupware.RegisterDesktopConference, groupware.RegisterTeamRoom, groupware.RegisterMessageSystem,
	} {
		if err := register(env); err != nil {
			t.Fatal(err)
		}
	}
	want := slices.Sorted(slices.Values(groupware.Quadrants()))
	if got := env.Quadrants(); !slices.Equal(got, want) {
		t.Fatalf("one environment hosts quadrants %v, want all four %v", got, want)
	}

	scribe, err := dep.JoinConference(room.ConferenceID(), "scribe")
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Do(func() error { _, err := scribe.RequestFloor(); return err }); err != nil {
		t.Fatal(err)
	}
	if err := dep.Do(func() error { return scribe.Set("decision", "build on odp") }); err != nil {
		t.Fatal(err)
	}
	dep.Run()
	minutes, err := room.PublishMinutes("scribe", "will odp help")
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Space().Share("scribe", minutes.ID, "klaus", false); err != nil {
		t.Fatal(err)
	}
	msg, err := env.ShareAcross("klaus", minutes.ID, "message-system")
	if err != nil {
		t.Fatal(err)
	}
	if msg.Schema != "structured-message" || msg.Fields["subject"] != "will odp help" ||
		!strings.Contains(msg.Fields["text"], "decision = build on odp") {
		t.Fatalf("the message system reads the minutes as %s %v", msg.Schema, msg.Fields)
	}
}

// TestPaperFigures2And3: N applications that register with the environment
// add 2N converters — to and from the shared representation — where
// Figure 2's isolated applications need N·(N−1) pairwise adapters, and
// every ordered pair still reads the other's object in its own schema.
func TestPaperFigures2And3(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("apps=%d", n), func(t *testing.T) {
			env := core.New(vclock.NewSimulated(netsim.DefaultEpoch))
			registry := env.Space().Registry()
			before := registry.ConverterCount()
			ids := make([]string, n)
			for i := range ids {
				if err := env.RegisterApplication(syntheticApp(i)); err != nil {
					t.Fatal(err)
				}
			}
			if added := registry.ConverterCount() - before; added != 2*n {
				t.Fatalf("%d registrations added %d converters, want 2N = %d (Figure 2 needs N·(N−1) = %d)",
					n, added, 2*n, n*(n-1))
			}
			for i := range ids {
				obj, err := env.Space().Put("ada", appSchema(i), map[string]string{
					appField(i, "title"): fmt.Sprintf("doc %d", i),
				})
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = obj.ID
			}
			for i := range ids {
				for j := range ids {
					if i == j {
						continue
					}
					got, err := env.ShareAcross("ada", ids[i], appSchema(j))
					if err != nil {
						t.Fatalf("app %d reads app %d's object: %v", j, i, err)
					}
					if title := got.Fields[appField(j, "title")]; title != fmt.Sprintf("doc %d", i) {
						t.Fatalf("app %d reads app %d's title as %q", j, i, title)
					}
				}
			}
		})
	}
}

// syntheticApp is the i-th of a set of independently written applications:
// its own schema with its own field names, and converters to and from the
// environment's shared representation.
func syntheticApp(i int) Application {
	title, body := appField(i, "title"), appField(i, "body")
	return Application{
		Name: appSchema(i),
		Schema: information.Schema{Name: appSchema(i), Fields: []information.Field{
			{Name: title, Type: information.FieldText, Required: true},
			{Name: body, Type: information.FieldText},
		}},
		ToShared:   renamed(map[string]string{title: "title", body: "body"}),
		FromShared: renamed(map[string]string{"title": title, "body": body}),
	}
}

// renamed converts a document by renaming its fields; a field the mapping
// leaves out is dropped.
func renamed(names map[string]string) func(map[string]string) (map[string]string, error) {
	return func(in map[string]string) (map[string]string, error) {
		out := make(map[string]string, len(in))
		for k, v := range in {
			if to, ok := names[k]; ok {
				out[to] = v
			}
		}
		return out, nil
	}
}

func appSchema(i int) string          { return fmt.Sprintf("app-%02d", i) }
func appField(i int, f string) string { return fmt.Sprintf("a%02d_%s", i, f) }

// TestPaperFigure4: a conference join and update reached through the CSCW
// environment — a transparency check, then a trader import — costs the
// same simulated time and puts the same frames on the wire as the raw ODP
// interaction: the environment's checks are local.
func TestPaperFigure4(t *testing.T) {
	interact := func(viaEnv bool) (time.Duration, []channel.MethodTraffic) {
		dep := NewDeployment(WithSeed(1))
		if err := dep.RegisterTradingService("conference", "o1", "mcu", nil); err != nil {
			t.Fatal(err)
		}
		start := dep.Clock().Now()
		if viaEnv {
			if !dep.Env().Transparency().For("client").Has(odp.Time) {
				t.Fatal("the client has no time transparency")
			}
			offers, err := dep.Env().Trader().Import(trader.ImportRequest{ServiceType: "conference", Importer: "client"})
			if err != nil || len(offers) != 1 {
				t.Fatalf("trader import: %v %v", offers, err)
			}
		}
		cid, err := dep.Conferencing().CreateConference("f4", ConferenceOpen)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := dep.JoinConference(cid, "client")
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Do(func() error { return sess.Set("k", "v") }); err != nil {
			t.Fatal(err)
		}
		dep.Run()
		return dep.Clock().Now().Sub(start), dep.Fabric().Methods("")
	}
	rawTime, rawFrames := interact(false)
	envTime, envFrames := interact(true)
	if rawTime != 80*time.Millisecond {
		t.Fatalf("the raw ODP join and update took %v simulated, want 80ms", rawTime)
	}
	if envTime != rawTime {
		t.Fatalf("through the environment %v, raw ODP %v: the layer added wire time", envTime, rawTime)
	}
	want := []channel.MethodTraffic{{Method: "rtc.join", Frames: 2}, {Method: "rtc.update", Frames: 2}, {Method: "rtc.event", Frames: 2}}
	for _, frames := range [][]channel.MethodTraffic{rawFrames, envFrames} {
		if len(frames) != len(want) {
			t.Fatalf("frames by method %+v, want %+v", frames, want)
		}
		for i, w := range want {
			if frames[i].Method != w.Method || frames[i].Frames != w.Frames {
				t.Fatalf("frames by method %+v, want %+v", frames, want)
			}
		}
	}
	if !slices.Equal(rawFrames, envFrames) {
		t.Fatalf("raw ODP sent %+v, the environment %+v", rawFrames, envFrames)
	}
}

// TestPaperTransparencyPerBinding: §6.1 asks that users, not only
// designers, select transparencies. The selector keeps a mask per
// principal, and a binding that provides a principal's selection
// satisfies exactly what that principal selected.
func TestPaperTransparencyPerBinding(t *testing.T) {
	sel := NewDeployment(WithSeed(1)).Env().Transparency()
	sel.Set("prinz", odp.MaskOf(odp.Time))
	need := odp.MaskOf(odp.Time, odp.View)
	prinz := odp.Binding{Client: "prinz", Server: "mcu", Provides: sel.For("prinz")}
	navarro := odp.Binding{Client: "navarro", Server: "mcu", Provides: sel.For("navarro")}
	if prinz.Satisfies(need) {
		t.Fatalf("prinz's binding provides %v, yet satisfies time+view", prinz.Provides)
	}
	if missing := prinz.Missing(need); !slices.Equal(missing, []odp.Transparency{odp.View}) {
		t.Fatalf("prinz's binding misses %v, want [view]", missing)
	}
	if !navarro.Satisfies(need) || len(navarro.Missing(need)) != 0 {
		t.Fatalf("navarro kept the default selection %v, yet the binding misses %v", navarro.Provides, navarro.Missing(need))
	}
}

// TestPaperTemporalBridge is ablation A1: with time transparency selected
// the router delivers to an offline recipient by store and forward; with
// it deselected the same delivery is the sender's error.
func TestPaperTemporalBridge(t *testing.T) {
	sel := transparency.NewSelector()
	var queued []string
	router := &transparency.TimeRouter{
		Selector: sel,
		Presence: func(string) bool { return false }, // the recipient is offline
		Async:    func(user string, _ any) error { queued = append(queued, user); return nil },
	}
	mode, err := router.Route("prinz", "navarro", "minutes")
	if err != nil || mode != transparency.ModeAsync || !slices.Equal(queued, []string{"navarro"}) {
		t.Fatalf("bridge on: mode %q, err %v, queued %v; want async delivery", mode, err, queued)
	}
	sel.Disable("prinz", odp.Time)
	if mode, err := router.Route("prinz", "navarro", "minutes"); !errors.Is(err, transparency.ErrRecipientOffline) {
		t.Fatalf("bridge off: mode %q, err %v; want ErrRecipientOffline", mode, err)
	}
	if len(queued) != 1 {
		t.Fatalf("bridge off still queued: %v", queued)
	}
}
