package logstore

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mocca/internal/information"
	"mocca/internal/vclock"
)

// benchObject builds the row stored by append benchmarks; i varies the
// fields so records are not trivially compressible.
func benchObject(id string, i int, vv vclock.Version) *information.Object {
	return &information.Object{
		ID: id, Schema: "doc", Owner: "ada",
		Fields:  map[string]string{"title": fmt.Sprintf("rev %d", i), "body": "the quick brown fox"},
		Version: vv.Sum(), VV: vv, Site: "gmd", Created: t0, Updated: t1,
	}
}

// BenchmarkLogstoreAppend measures WAL append throughput: one Exec
// storing a full row per iteration, serially and from concurrent writers
// (every append is one fsync under WithFsync; fsyncs/op reports it).
func BenchmarkLogstoreAppend(b *testing.B) {
	type mode struct {
		name     string
		fsync    bool
		parallel bool
	}
	modes := []mode{
		{name: "nosync", fsync: false},
		{name: "fsync", fsync: true},
		{name: "fsync-parallel", fsync: true, parallel: true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			st, err := Open(b.TempDir(), WithFsync(m.fsync), WithCompactEvery(0))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			write := func(id string, i int, vv vclock.Version) {
				obj := benchObject(id, i, vv)
				if _, err := st.Exec(obj.ID, func(*information.Object) (*information.Object, error) {
					return obj, nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			if m.parallel {
				// Force a writer pool even on small CPU counts.
				b.SetParallelism(8)
				var writer atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					id := fmt.Sprintf("obj-w%02d", writer.Add(1))
					vv := vclock.Version{}
					i := 0
					for pb.Next() {
						vv = vv.Tick("gmd")
						write(id, i, vv.Clone())
						i++
					}
				})
			} else {
				vv := vclock.Version{}
				for i := 0; i < b.N; i++ {
					vv = vv.Tick("gmd")
					write("obj-hot", i, vv.Clone())
				}
			}
			b.StopTimer()
			s := st.Stats()
			b.SetBytes(s.AppendedBytes / s.Appends)
			if m.fsync {
				b.ReportMetric(float64(s.Fsyncs)/float64(b.N), "fsyncs/op")
			}
		})
	}
}

// BenchmarkRecovery measures Open over a populated directory — the
// crash-restart path. "wal" recovers from full log replay — the
// O(data) baseline every pre-tiered design pays, whether it decodes a
// full snapshot or the log itself. "snapshot" recovers from the segment
// manifest plus an empty log: O(segment metadata), independent of row
// count, which is the tiered store's acceptance claim at 10⁵–10⁶ rows.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000, 1000000} {
		for _, mode := range []string{"wal", "snapshot"} {
			b.Run(fmt.Sprintf("%s/objects=%d", mode, n), func(b *testing.B) {
				dir := b.TempDir()
				st, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
				if err != nil {
					b.Fatal(err)
				}
				vv := vclock.Version{}
				for i := 0; i < n; i++ {
					vv = vv.Tick("gmd")
					obj := benchObject(fmt.Sprintf("obj-%07d", i), i, vv.Clone())
					if _, err := st.Exec(obj.ID, func(*information.Object) (*information.Object, error) {
						return obj, nil
					}); err != nil {
						b.Fatal(err)
					}
				}
				if mode == "snapshot" {
					if err := st.Compact(); err != nil {
						b.Fatal(err)
					}
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					re, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
					if err != nil {
						b.Fatal(err)
					}
					if re.Len() != n {
						b.Fatalf("recovered %d objects, want %d", re.Len(), n)
					}
					if err := re.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
				b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N), "ms/recovery")
			})
		}
	}
}

// BenchmarkLogstorePointRead measures Get against a fully-flushed store
// — every row lives in segment files, the memtable is empty, so this is
// the on-disk read path. "hit" reads existing rows; "miss" reads ids
// inside the key range that were never written, where the bloom filters
// must answer from memory: segprobes/op reports how many reads actually
// touched a segment file (the bloom false-positive rate, ~1% at 10
// bits/key).
func BenchmarkLogstorePointRead(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		dir := b.TempDir()
		st, err := Open(dir, WithCompactEvery(0), WithBackgroundMerge(false))
		if err != nil {
			b.Fatal(err)
		}
		vv := vclock.Version{}
		for i := 0; i < n; i++ {
			vv = vv.Tick("gmd")
			obj := benchObject(fmt.Sprintf("obj-%07d", i*2), i, vv.Clone())
			if _, err := st.Exec(obj.ID, func(*information.Object) (*information.Object, error) {
				return obj, nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"hit", "miss"} {
			b.Run(fmt.Sprintf("%s/objects=%d", mode, n), func(b *testing.B) {
				before := st.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Hits read even suffixes (written); misses read odd
					// suffixes (inside the key range, never written).
					id := fmt.Sprintf("obj-%07d", (i%n)*2)
					if mode == "miss" {
						id = fmt.Sprintf("obj-%07d", (i%n)*2+1)
					}
					_, ok := st.Get(id)
					if ok != (mode == "hit") {
						b.Fatalf("Get(%s) = %v in %s mode", id, ok, mode)
					}
				}
				b.StopTimer()
				after := st.Stats()
				b.ReportMetric(float64(after.SegmentProbes-before.SegmentProbes)/float64(b.N), "segprobes/op")
				b.ReportMetric(float64(after.BloomFiltered-before.BloomFiltered)/float64(b.N), "bloomfiltered/op")
			})
		}
		st.Close()
	}
}

// BenchmarkLogstoreFsyncPolicy compares the two durability policies on
// the same concurrent write load: "none" (page-cache durability, the
// crash-model default) and "per-op" (every append fsyncs before
// returning); ns/op prices each.
func BenchmarkLogstoreFsyncPolicy(b *testing.B) {
	type policy struct {
		name  string
		fsync bool
	}
	policies := []policy{
		{name: "none"},
		{name: "per-op", fsync: true},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			st, err := Open(b.TempDir(), WithFsync(p.fsync), WithCompactEvery(0))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			b.SetParallelism(8)
			var writer atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				id := fmt.Sprintf("obj-w%02d", writer.Add(1))
				vv := vclock.Version{}
				i := 0
				for pb.Next() {
					vv = vv.Tick("gmd")
					obj := benchObject(id, i, vv.Clone())
					if _, err := st.Exec(obj.ID, func(*information.Object) (*information.Object, error) {
						return obj, nil
					}); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
			b.StopTimer()
			s := st.Stats()
			b.ReportMetric(float64(s.Fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}
