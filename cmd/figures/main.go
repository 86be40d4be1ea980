// Command figures regenerates the data behind every figure of the paper as
// text tables (the position paper has no numeric tables; these quantify
// each figure's claim).
package main

import (
	"fmt"
	"log"
	"time"

	"mocca"
	"mocca/internal/interop"
	"mocca/internal/odp"
	"mocca/internal/trader"
	"mocca/internal/transparency"
)

func main() {
	figure1()
	figure2and3()
	figure4()
	ablation()
}

// figure1 demonstrates one environment hosting all four quadrants.
func figure1() {
	fmt.Println("== Figure 1: the groupware time-space matrix ==")
	fmt.Println("one environment instance, one application per quadrant")
	fmt.Println()

	dep := mocca.NewDeployment(mocca.WithSeed(1))
	env := dep.Env()

	quadrants := []struct{ name, quadrant string }{
		{"meeting-room", "same-time/same-place"},
		{"desktop-conference", "same-time/different-place"},
		{"team-room", "different-time/same-place"},
		{"message-system", "different-time/different-place"},
	}
	for _, q := range quadrants {
		if err := env.RegisterApplication(mocca.Application{Name: q.name, Quadrant: q.quadrant}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%-22s %-32s\n", "application", "quadrant")
	for _, q := range quadrants {
		fmt.Printf("%-22s %-32s\n", q.name, q.quadrant)
	}
	fmt.Printf("quadrants covered by one environment: %d/4\n\n", len(env.Quadrants()))
}

// figure2and3 prints the adapter-count and success-rate comparison.
func figure2and3() {
	fmt.Println("== Figures 2 & 3: isolated vs environment-mediated interop ==")
	fmt.Printf("%-6s %-18s %-18s %-18s %-18s\n",
		"apps", "fig2 adapters", "fig3 converters", "fig2 success", "fig3 success")
	for _, n := range []int{2, 4, 8, 16} {
		cmp, err := interop.Compare(n, 1.0, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-18d %-18d %-18.2f %-18.2f\n",
			cmp.Apps, cmp.IsolatedAdapters, cmp.EnvironmentAdapters,
			cmp.IsolatedSuccess, cmp.EnvironmentSuccess)
	}
	fmt.Println()
	fmt.Println("with only 50% of pairwise adapters written (realistic figure-2 effort):")
	fmt.Printf("%-6s %-18s %-18s %-18s %-18s\n",
		"apps", "fig2 adapters", "fig3 converters", "fig2 success", "fig3 success")
	for _, n := range []int{4, 8, 16} {
		cmp, err := interop.Compare(n, 0.5, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %-18d %-18d %-18.2f %-18.2f\n",
			cmp.Apps, cmp.IsolatedAdapters, cmp.EnvironmentAdapters,
			cmp.IsolatedSuccess, cmp.EnvironmentSuccess)
	}
	fmt.Println()
}

// figure4 measures the layering overhead in simulated time.
func figure4() {
	fmt.Println("== Figure 4: CSCW environment layered on the ODP environment ==")
	fmt.Println("simulated end-to-end latency of one interaction (20ms links)")
	fmt.Println()

	run := func(name string, viaEnv bool) {
		dep := mocca.NewDeployment(mocca.WithSeed(1))
		if err := dep.RegisterTradingService("echo", "o1", "mcu", nil); err != nil {
			log.Fatal(err)
		}
		start := dep.Clock().Now()
		if viaEnv {
			// Environment path: transparency check + trader lookup + the
			// same conference-server interaction.
			sel := dep.Env().Transparency()
			if !sel.For("client").Has(odp.Time) {
				log.Fatal("transparency missing")
			}
			if _, err := dep.Env().Trader().Import(trader.ImportRequest{
				ServiceType: "echo", Importer: "client",
			}); err != nil {
				log.Fatal(err)
			}
		}
		cid, err := dep.Conferencing().CreateConference("f4", mocca.ConferenceOpen)
		if err != nil {
			log.Fatal(err)
		}
		sess, err := dep.JoinConference(cid, "client")
		if err != nil {
			log.Fatal(err)
		}
		if err := dep.Do(func() error { return sess.Set("k", "v") }); err != nil {
			log.Fatal(err)
		}
		dep.Run()
		elapsed := dep.Clock().Now().Sub(start)
		fmt.Printf("%-28s %v simulated\n", name, elapsed.Round(time.Millisecond))
	}
	run("raw ODP interaction", false)
	run("via CSCW environment", true)
	fmt.Println("(the CSCW environment adds local checks only: same wire latency)")
	fmt.Println()
}

// ablation shows temporal transparency on/off.
func ablation() {
	fmt.Println("== Ablation A1: temporal transparency bridge ==")
	sel := transparency.NewSelector()
	router := func() *transparency.TimeRouter {
		return &transparency.TimeRouter{
			Selector: sel,
			Presence: func(string) bool { return false },
			Sync:     func(string, any) error { return nil },
			Async:    func(string, any) error { return nil },
		}
	}
	if mode, err := router().Route("a", "offline-user", "x"); err == nil {
		fmt.Printf("bridge on:  delivery to offline user -> %s\n", mode)
	}
	sel.Set("a", 0)
	if _, err := router().Route("a", "offline-user", "x"); err != nil {
		fmt.Printf("bridge off: delivery to offline user -> error (%v)\n", err)
	}
}
