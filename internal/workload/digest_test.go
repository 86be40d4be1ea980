package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// referenceDigest is the harness digest as it was first written: every
// site's rows as a map of cloned vectors, hashed in sorted id and site
// order.
func referenceDigest(h *Harness) string {
	var common string
	for _, name := range h.org.Sites {
		digest := map[string]vclock.Version{}
		h.sites[name].Space().Range(func(o *information.Object) bool {
			digest[o.ID] = o.VV.Clone()
			return true
		})
		ids := make([]string, 0, len(digest))
		for id := range digest {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		sum := sha256.New()
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

// TestCommonDigestMatchesReference: the digest the harness streams out of
// Space.Range is byte-identical to the one hashed from whole digest maps,
// on both topologies and over a durable store, whose rows are transient.
func TestCommonDigestMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		topology string
		durable  bool
	}{
		{"mesh", "mesh", false},
		{"gossip", "gossip", false},
		{"durable", "mesh", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := smokeSpec(7)
			spec.Topology = tc.topology
			if tc.durable {
				spec.StoreDir = t.TempDir()
			}
			rep, h, err := run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Digest == "" || rep.Digest == "diverged" {
				t.Fatalf("digest = %q, want a common value", rep.Digest)
			}
			if want := referenceDigest(h); rep.Digest != want {
				t.Fatalf("digest %s, the reference reads %s", rep.Digest, want)
			}
		})
	}
}
