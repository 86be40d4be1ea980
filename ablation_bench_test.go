// Ablation benchmarks for design choices DESIGN.md calls out beyond the
// paper's figures: per-link FIFO ordering in the simulated network (which
// the rtc session otherwise repairs with its gap buffer).
package mocca

import (
	"fmt"
	"testing"
	"time"

	"mocca/internal/netsim"
	"mocca/internal/vclock"
)

// BenchmarkAblationFIFO measures the cost of per-link FIFO ordering vs
// unordered delivery with client-side gap repair, for a burst of messages.
func BenchmarkAblationFIFO(b *testing.B) {
	for _, fifo := range []bool{true, false} {
		name := fmt.Sprintf("fifo=%v", fifo)
		b.Run(name, func(b *testing.B) {
			clk := vclock.NewSimulated(netsim.DefaultEpoch)
			net := netsim.New(netsim.WithClock(clk), netsim.WithSeed(2))
			a := net.MustAddNode("a")
			dst := net.MustAddNode("b")
			net.SetLink("a", "b", netsim.LinkProfile{
				Latency: time.Millisecond,
				Jitter:  10 * time.Millisecond,
				FIFO:    fifo,
			})
			received := 0
			dst.Handle(func(netsim.Message) { received++ })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 16; j++ {
					if err := a.Send(netsim.Message{To: "b", Payload: []byte{byte(j)}}); err != nil {
						b.Fatal(err)
					}
				}
				clk.RunUntilIdle()
			}
			b.StopTimer()
			if received != b.N*16 {
				b.Fatalf("received %d of %d", received, b.N*16)
			}
		})
	}
}
