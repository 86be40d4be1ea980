package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"mocca/internal/observe"
)

// servicePrefixes are the Fabric address prefixes the report slices
// per-service throughput by, in canonical order.
var servicePrefixes = []string{"mta-", "repl-", "place-", "gossip-", "user-", "load-", "dsa-", "trade-", "mcu"}

// ClassStats aggregates one op class.
type ClassStats struct {
	Issued    int64      `json:"issued"`
	Completed int64      `json:"completed"`
	Failed    int64      `json:"failed"`
	Skipped   int64      `json:"skipped"` // target site was down at issue time
	Hist      *Histogram `json:"hist"`
}

// ServiceStats is one service plane's share of the run's wire traffic.
type ServiceStats struct {
	Channels  int   `json:"channels"`
	FramesOut int64 `json:"framesOut"`
	FramesIn  int64 `json:"framesIn"`
	BytesOut  int64 `json:"bytesOut"`
	BytesIn   int64 `json:"bytesIn"`
}

// Report is the deterministic outcome of one scenario run: everything in
// it — counters, histograms, digests, the fault log — is a pure function
// of the Spec, so its Fingerprint doubles as the run's reproducibility
// check.
type Report struct {
	Spec        Spec          `json:"spec"` // StoreDir blanked: temp paths must not enter the fingerprint
	SimDuration time.Duration `json:"simDuration"`

	Classes  map[string]*ClassStats  `json:"classes"`
	Services map[string]ServiceStats `json:"services"`

	Converged     bool   `json:"converged"`
	Objects       int    `json:"objects"`
	MerkleRoot    string `json:"merkleRoot"`
	Digest        string `json:"digest"`
	PendingWrites int    `json:"pendingWrites"`
	PendingMail   int    `json:"pendingMail"`

	FaultLog []string `json:"faultLog"`

	// Telemetry is present only for runs with Spec.Telemetry: the final
	// metrics snapshot (deterministically ordered by the registry) and
	// the trace counts. Both are pure functions of the spec, so the
	// fingerprint stays byte-reproducible with telemetry enabled; runs
	// without telemetry omit the section and keep their old fingerprints.
	Telemetry *TelemetryReport `json:"telemetry,omitempty"`
}

// TelemetryReport is the run's observability outcome.
type TelemetryReport struct {
	Traces  observe.TraceCounts `json:"traces"`
	Metrics []observe.Point     `json:"metrics"`
}

func (h *Harness) report(converged bool) *Report {
	r := &Report{
		Spec:        h.spec,
		SimDuration: h.clock.Now().Sub(h.start),
		Classes:     h.stats,
		Services:    make(map[string]ServiceStats),
		Converged:   converged,
		PendingMail: len(h.pendingMail),
		FaultLog:    h.faultLog,
	}
	r.Spec.StoreDir = ""
	r.Spec.Faults = h.faults
	for _, p := range h.pending {
		r.PendingWrites += len(p)
	}
	for _, prefix := range servicePrefixes {
		t := h.dep.Fabric().TotalsFor(prefix)
		r.Services[strings.TrimSuffix(prefix, "-")] = ServiceStats{
			Channels:  t.Channels,
			FramesOut: t.FramesOut,
			FramesIn:  t.FramesIn,
			BytesOut:  t.BytesOut,
			BytesIn:   t.BytesIn,
		}
	}
	if converged {
		sp := h.sites[h.org.Sites[0]].Space()
		r.Objects = sp.Len()
		r.MerkleRoot = fmt.Sprintf("%016x", sp.Tree().Root())
		r.Digest = h.commonDigest()
	}
	if tel := h.dep.Telemetry(); tel != nil {
		r.Telemetry = &TelemetryReport{
			Traces:  tel.Tracer.Counts(),
			Metrics: h.dep.Metrics().Snapshot().Points,
		}
	}
	return r
}

// commonDigest hashes every site's full version-vector digest canonically
// and returns the shared value — or "diverged" if any site disagrees,
// which the acceptance tests treat as failure. This is the byte-identical
// digest check: Merkle roots catching up is necessary, matching full
// digests is the proof.
func (h *Harness) commonDigest() string {
	var common string
	for _, name := range h.org.Sites {
		sum := sha256.New()
		digest := h.sites[name].Space().Digest()
		ids := make([]string, 0, len(digest))
		for id := range digest {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var scratch [8]byte
		for _, id := range ids {
			sum.Write([]byte(id))
			sum.Write([]byte{0})
			vv := digest[id]
			sites := make([]string, 0, len(vv))
			for s := range vv {
				sites = append(sites, s)
			}
			sort.Strings(sites)
			for _, s := range sites {
				sum.Write([]byte(s))
				binary.BigEndian.PutUint64(scratch[:], vv[s])
				sum.Write(scratch[:])
			}
			sum.Write([]byte{0xff})
		}
		d := hex.EncodeToString(sum.Sum(nil))
		if common == "" {
			common = d
		} else if d != common {
			return "diverged"
		}
	}
	return common
}

// Fingerprint is the sha256 of the report's canonical JSON encoding.
// Same spec, same seed → same fingerprint, byte for byte; that is the
// harness's core determinism contract.
func (r *Report) Fingerprint() string {
	blob, err := json.Marshal(r)
	if err != nil {
		return "unfingerprintable: " + err.Error()
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Summary renders a human-readable digest of the run for CLI output and
// test logs.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload: %d sites, %d users, %v traffic (%s topology), seed %d\n",
		r.Spec.Sites, r.Spec.Users, r.Spec.Duration, r.Spec.Topology, r.Spec.Seed)
	fmt.Fprintf(&b, "converged=%v objects=%d merkle=%s pendingWrites=%d pendingMail=%d\n",
		r.Converged, r.Objects, r.MerkleRoot, r.PendingWrites, r.PendingMail)
	for _, c := range Classes {
		st := r.Classes[c]
		if st == nil || st.Issued == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12s issued=%-6d done=%-6d failed=%-4d skipped=%-4d %s\n",
			c, st.Issued, st.Completed, st.Failed, st.Skipped, st.Hist)
	}
	keys := make([]string, 0, len(r.Services))
	for k := range r.Services {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := r.Services[k]
		if s.FramesOut == 0 && s.FramesIn == 0 {
			continue
		}
		fmt.Fprintf(&b, "  svc %-8s channels=%-4d framesOut=%-8d bytesOut=%-10d framesIn=%-8d bytesIn=%d\n",
			k, s.Channels, s.FramesOut, s.BytesOut, s.FramesIn, s.BytesIn)
	}
	for _, f := range r.FaultLog {
		fmt.Fprintf(&b, "  fault: %s\n", f)
	}
	fmt.Fprintf(&b, "fingerprint: %s", r.Fingerprint())
	return b.String()
}
