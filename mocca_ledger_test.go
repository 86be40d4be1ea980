package mocca

import (
	"testing"

	"mocca/internal/channel"
)

// TestByteLedgerBalances: the byte ledger gives every frame a deployment
// sends to the rpc method it names. For each service — each address
// prefix the workload reports — and for the whole fabric, the ledger's
// lines sum to the Fabric's frames and bytes out exactly; no frame falls
// outside the method table; and the metrics registry projects the lines
// as mocca.rpc.frames_out and bytes_out by method.
func TestByteLedgerBalances(t *testing.T) {
	for _, gossip := range []bool{false, true} {
		opts := []Option{WithSeed(23), WithTelemetry()}
		if gossip {
			opts = append(opts, WithGossip())
		}
		dep := NewDeployment(opts...)
		sites := []*Site{dep.AddSite("s0", "s0.net"), dep.AddSite("s1", "s1.net"), dep.AddSite("s2", "s2.net")}
		ada, bob := sites[0].AddUser("ada"), sites[2].AddUser("bob")
		dep.Run() // the overlay forms: the writes below travel as rumors
		for i, s := range sites {
			if _, err := s.Space().Put("ada", SharedSchemaName, map[string]string{"title": string(rune('a' + i))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ada.Send([]ORName{bob.Name}, "ledger", "by method"); err != nil {
			t.Fatal(err)
		}
		dep.Run()
		sites[1].Crash()
		dep.Run()
		if err := sites[1].Restart(); err != nil {
			t.Fatal(err)
		}
		dep.Run()

		f := dep.Fabric()
		seen := map[string]bool{}
		for _, prefix := range []string{"mta-", "repl-", "gossip-", "user-", "dsa-", "trade-", "mcu", ""} {
			want := f.TotalsFor(prefix)
			var got channel.MethodTraffic
			for _, m := range f.Methods(prefix) {
				if m.Method == "" {
					t.Errorf("gossip %v: %q sent %d frames naming no method of the table", gossip, prefix, m.Frames)
				}
				seen[m.Method] = true
				got.Frames += m.Frames
				got.Bytes += m.Bytes
			}
			if got.Frames != want.FramesOut || got.Bytes != want.BytesOut {
				t.Errorf("gossip %v: %q's ledger sums to %d frames, %d bytes; its books say %d, %d",
					gossip, prefix, got.Frames, got.Bytes, want.FramesOut, want.BytesOut)
			}
		}
		for _, method := range []string{"replica.digest", "mhs.transfer"} {
			if !seen[method] {
				t.Errorf("gossip %v: no %s frame on the ledger: %v", gossip, method, seen)
			}
		}
		if gossip && !seen["gossip.rumor"] {
			t.Errorf("no gossip.rumor frame on the ledger: %v", seen)
		}
		var projected int64
		for _, p := range dep.Metrics().Snapshot().Points {
			if p.Name == "mocca.rpc.bytes_out" {
				projected += p.Value
			}
		}
		if total := f.Totals().BytesOut; projected != total || total == 0 {
			t.Errorf("gossip %v: mocca.rpc.bytes_out sums to %d, the fabric sent %d bytes", gossip, projected, total)
		}
		if err := f.Reconcile(dep.Network().Stats()); err != nil {
			t.Error(err)
		}
	}
}
