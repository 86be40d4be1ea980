package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mocca/internal/core"
	"mocca/internal/information"
	"mocca/internal/information/logstore"
	"mocca/internal/netsim"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// storeSizes shapes store_mixed. The benchmark runs fullStore; the tier-1
// test runs a small one through the same code.
type storeSizes struct {
	rows      int // canonical rows loaded before the mixed phase
	ops       int // mixed-phase ops
	scanEvery int // a full Digest()+Range scan after this many ops
	unsynced  int // Execs between the last Sync() and the crash
}

var fullStore = storeSizes{rows: 100_000, ops: 300_000, scanEvery: 50_000, unsynced: 500}

const (
	storeSite = "s000"
	// tornBytes is how far into its last record wal.log is cut: the crash
	// the benchmark itself inflicts, since killing a process would leave
	// the page cache intact.
	tornBytes = 7
	// spanEvery samples the traced run's point calls into trace.json; a
	// span per call would be 300000 of them.
	spanEvery = 1000
)

// Op classes of the mixed phase, in Issued/report order.
const (
	opGetHit = iota
	opGetMiss
	opExec
	opClasses
)

var opClassNames = [opClasses]string{"get_hit", "get_miss", "exec"}

type storeOp struct {
	class uint8
	key   uint32
}

// genStoreOps draws the mixed phase from the seed: Zipf(1.2) keys, 50% Get
// of a loaded row, 10% Get of a never-written id, 40% Exec overwrite.
func genStoreOps(seed int64, sz storeSizes) []storeOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(sz.rows-1))
	ops := make([]storeOp, sz.ops)
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 5:
			ops[i].class = opGetHit
		case r < 6:
			ops[i].class = opGetMiss
		default:
			ops[i].class = opExec
		}
		ops[i].key = uint32(zipf.Uint64())
	}
	return ops
}

func rowID(key uint32) string   { return fmt.Sprintf("obj%06d", key) }
func ghostID(key uint32) string { return fmt.Sprintf("ghost%06d", key) }

// fixtureRow is the one row shape every part of the benchmark uses: the
// workload harness's seeded object (title/body/author/context on the
// shared interchange schema).
func fixtureRow(key uint32) *information.Object {
	id := rowID(key)
	owner := fmt.Sprintf("u%05d", key%2000)
	return &information.Object{
		ID: id, Schema: core.SharedSchemaName, Owner: owner, Site: storeSite,
		Fields: map[string]string{
			"title":   "seed " + id,
			"body":    fmt.Sprintf("shared working material for act%04d", key%20),
			"author":  owner,
			"context": fmt.Sprintf("act%04d", key%20),
		},
		Version: 1, VV: vclock.NewVersion(storeSite),
		Created: netsim.DefaultEpoch, Updated: netsim.DefaultEpoch,
	}
}

var errRowMissing = errors.New("overwrite of a row that is not stored")

// overwrite is the Exec callback of the n-th write: one more revision by
// the store's own site.
func overwrite(n int, userBytes *int64) func(*information.Object) (*information.Object, error) {
	return func(cur *information.Object) (*information.Object, error) {
		if cur == nil {
			return nil, errRowMissing
		}
		// Copied here, not with cur.Clone(): the copy is the caller's work,
		// and the profile should not charge it to information.
		next := *cur
		next.Fields, next.VV = maps.Clone(cur.Fields), maps.Clone(cur.VV)
		next.VV = next.VV.Tick(storeSite)
		next.Version = next.VV.Sum()
		next.Fields["body"] = fmt.Sprintf("rev %d by %s", n, next.Owner)
		next.Updated = netsim.DefaultEpoch.Add(time.Duration(n) * time.Second)
		*userBytes += rowUserBytes(&next)
		return &next, nil
	}
}

func rowUserBytes(o *information.Object) int64 {
	n := len(o.ID)
	for k, v := range o.Fields {
		n += len(k) + len(v)
	}
	return int64(n)
}

// rowHash summarises what a call returned, so two backends' answers to the
// same op sequence compare in one word per op.
func rowHash(o *information.Object, ok bool) uint64 {
	if !ok || o == nil {
		return 1
	}
	h := fnv.New64a()
	h.Write([]byte(o.ID))
	h.Write([]byte(o.Fields["body"]))
	return h.Sum64() ^ o.Version<<32 ^ o.VV[storeSite]
}

// callTimes holds the traced run's per-call wall times, by op class, plus
// the scans.
type callTimes struct {
	point [opClasses][]float64 // us
	scan  []float64            // ms
}

// insert stores a new row at the Backend seam.
func insert(b information.Backend, row *information.Object) error {
	_, err := b.Exec(row.ID, func(*information.Object) (*information.Object, error) { return row, nil })
	return err
}

// load writes the canonical rows and syncs, returning the user bytes written.
func load(b information.Backend, sz storeSizes, sync func() error) (int64, error) {
	var userBytes int64
	for k := 0; k < sz.rows; k++ {
		row := fixtureRow(uint32(k))
		if err := insert(b, row); err != nil {
			return 0, fmt.Errorf("load %s: %w", row.ID, err)
		}
		userBytes += rowUserBytes(row)
	}
	return userBytes, sync()
}

// mixed replays ops against b and returns one result word per op followed
// by one per scan. times and log are nil unless the run is traced.
func mixed(b information.Backend, ops []storeOp, sz storeSizes, times *callTimes, log *spanLog, parent uint64) (sums []uint64, userBytes int64) {
	sums = make([]uint64, 0, len(ops)+len(ops)/sz.scanEvery)
	var scans []uint64
	for i, op := range ops {
		var t0 time.Time
		var sp liveSpan
		traced := times != nil
		sampled := traced && i%spanEvery == 0
		if sampled {
			sp = log.begin("Backend."+opClassNames[op.class], parent)
		}
		if traced {
			t0 = time.Now()
		}
		var h uint64
		switch op.class {
		case opGetHit:
			h = rowHash(b.Get(rowID(op.key)))
		case opGetMiss:
			h = rowHash(b.Get(ghostID(op.key)))
		case opExec:
			obj, err := b.Exec(rowID(op.key), overwrite(i, &userBytes))
			h = rowHash(obj, err == nil)
		}
		if traced {
			times.point[op.class] = append(times.point[op.class], float64(time.Since(t0))/1e3)
		}
		if sampled {
			sp.end()
		}
		sums = append(sums, h)
		if (i+1)%sz.scanEvery == 0 {
			if traced {
				sp = log.begin("Backend.Digest+Range", parent)
				t0 = time.Now()
			}
			scans = append(scans, scan(b))
			if traced {
				times.scan = append(times.scan, float64(time.Since(t0))/1e6)
				sp.end()
			}
		}
	}
	return append(sums, scans...), userBytes
}

// scan is the full-store read: Digest() and a Range over every row, folded
// order-independently because backends iterate in different orders.
func scan(b information.Backend) uint64 {
	var sum uint64
	for id, vv := range b.Digest() {
		sum += rowHash(&information.Object{ID: id, Version: vv.Sum(), VV: vv}, true)
	}
	b.Range(func(o *information.Object) bool {
		sum += rowHash(o, true)
		return true
	})
	return sum
}

// answers is what a backend answered to the op sequence, pointer-free so
// that holding one costs the collector nothing during the timed phases: one
// word per call (and per scan), then each row's final write counter.
type answers struct {
	sums     []uint64
	counters []uint64 // by row key; ^0 marks a row whose vector names another site
}

func (a *answers) fingerprint() string {
	h := fnv.New64a()
	var word [8]byte
	for _, s := range a.sums {
		binary.LittleEndian.PutUint64(word[:], s)
		h.Write(word[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// counters reads every row's write counter off a Digest().
func counters(digest map[string]vclock.Version, sz storeSizes) []uint64 {
	out := make([]uint64, sz.rows)
	for k := range out {
		vv := digest[rowID(uint32(k))]
		out[k] = vv[storeSite]
		if len(vv) != 1 {
			out[k] = ^uint64(0)
		}
	}
	return out
}

// replayReference replays the op sequence on information.Store, the
// in-memory store logstore claims to be equivalent to.
func replayReference(ops []storeOp, sz storeSizes, times *callTimes, log *spanLog) (*answers, error) {
	sp := log.begin("reference: information.Store replay", 0)
	defer sp.end()
	store := information.NewStore()
	if _, err := load(store, sz, func() error { return nil }); err != nil {
		return nil, err
	}
	sums, _ := mixed(store, ops, sz, times, log, sp.ID)
	return &answers{sums: sums, counters: counters(store.Digest(), sz)}, nil
}

// unsyncedKey spreads the post-Sync writes over distinct rows, so each
// one's survival can be read off its own row after the reopen.
func unsyncedKey(j int, sz storeSizes) uint32 { return uint32((j*199 + 7) % sz.rows) }

// runStore measures store_mixed: per repetition load, mixed, crash, recover
// on a fresh logstore under outDir. The reference replay comes last, so
// that neither its heap nor its peak RSS is charged to logstore.
func runStore(res *runResult, log *spanLog, sz storeSizes, seconds int, outDir string) error {
	ops := genStoreOps(res.Seed, sz)
	for _, op := range ops {
		res.Issued[opClassNames[op.class]]++
	}
	var first *answers
	var unsynced int
	rep := func(times *callTimes, speed *speedometer) error {
		log.nextRep()
		got, n, err := storeRep(res, log, ops, sz, outDir, times, speed)
		if err != nil {
			return err
		}
		if first == nil {
			first, unsynced = got, n
			res.Fingerprint = got.fingerprint()
		}
		res.check(slices.Equal(got.sums, first.sums) && slices.Equal(got.counters, first.counters), "fingerprint",
			"a repetition answered %s, the first %s", got.fingerprint(), res.Fingerprint)
		return nil
	}
	var memTimes *callTimes
	if res.Traced {
		memTimes = &callTimes{}
		if err := res.profiled(outDir, func() error { return rep(&callTimes{}, nil) }); err != nil {
			return err
		}
	} else {
		speed := newSpeedometer()
		for b := newBudget(seconds); b.more(); {
			t0 := time.Now()
			if err := rep(nil, speed); err != nil {
				return err
			}
			b.spent(time.Since(t0))
		}
		if err := res.untracedDone(); err != nil {
			return err
		}
	}

	log.nextRep()
	ref, err := replayReference(ops, sz, memTimes, log)
	if err != nil {
		return err
	}
	if res.Traced {
		res.Metrics["memstore.exec_p50_us"] = median(memTimes.point[opExec])
		res.Metrics["memstore.get_p50_us"] = median(memTimes.point[opGetHit])
		res.Metrics["memstore.scan_mean_ms"] = mean(memTimes.scan)
	}
	checkAnswers(res, first, ref, sz, unsynced)
	return nil
}

// storeRep is one repetition on a fresh store directory. It returns what
// the store answered and how many unsynced writes preceded the crash. times
// is set in the traced run, speed in the untraced ones.
func storeRep(res *runResult, log *spanLog, ops []storeOp, sz storeSizes, outDir string, times *callTimes, speed *speedometer) (got *answers, unsynced int, err error) {
	dir, err := os.MkdirTemp(outDir, "store-*")
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	// The deployment's default options: no per-append fsync, background
	// merge on (mocca.WithDurableStore passes none either).
	st, err := logstore.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close() // idempotent; the crash phase checks the Close that matters

	sp := log.begin("load", 0)
	t0 := time.Now()
	userBytes, err := load(st, sz, st.Sync)
	res.sample("setup_s", time.Since(t0).Seconds())
	sp.end()
	if err != nil {
		return nil, 0, err
	}

	var lapBefore time.Duration
	if speed != nil {
		lapBefore = speed.lap()
	}
	got = &answers{}
	var before, crashed logstore.Stats
	wall, err := res.timed(func() error {
		before = st.Stats()
		sp := log.begin("mixed", 0)
		var mixedBytes int64
		got.sums, mixedBytes = mixed(st, ops, sz, times, log, sp.ID)
		userBytes += mixedBytes
		sp.end()

		sp = log.begin("crash: Sync, unsynced Execs, Close", 0)
		defer sp.end()
		if err := st.Sync(); err != nil {
			return err
		}
		// The tail has to end in a WAL record to tear; a memtable flush
		// landing on the very last write would leave wal.log empty.
		for unsynced < sz.unsynced || walSize(dir) == 0 {
			if _, err := st.Exec(rowID(unsyncedKey(unsynced, sz)), overwrite(len(ops)+unsynced, &userBytes)); err != nil {
				return fmt.Errorf("unsynced exec %d: %w", unsynced, err)
			}
			unsynced++
		}
		crashed = st.Stats()
		return st.Close()
	})
	if err != nil {
		return nil, 0, err
	}
	if err := tearWAL(dir); err != nil {
		return nil, 0, err
	}
	sp = log.begin("recover: Open", 0)
	t0 = time.Now()
	tail, err := logstore.Open(dir)
	recovery := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, 0, fmt.Errorf("reopen after torn WAL: %w", err)
	}
	defer func() {
		if cerr := tail.Close(); err == nil {
			err = cerr
		}
	}()
	digest := tail.Digest()
	got.counters = counters(digest, sz)
	res.check(len(digest) == sz.rows, "synced_rows", "%d rows after the reopen, %d loaded", len(digest), sz.rows)
	recovered := tail.Stats()
	res.check(recovered.DiscardedBytes > 0, "torn_tail", "recovery discarded no bytes of the torn record")
	res.check(recovered.IterationFailures+recovered.SegmentReadFailures+crashed.IterationFailures+crashed.SegmentReadFailures == 0,
		"read_failures", "a scan or point read hit a segment error")

	res.sample("run_wall_s", (wall + recovery).Seconds())
	if speed != nil {
		res.sample("run_cal_s", calibrated(wall+recovery, lapBefore, speed.lap()))
	}
	res.Attempted = int64(len(got.sums) + unsynced)

	dirBytes, err := dirSize(dir)
	if err != nil {
		return nil, 0, err
	}
	stored := float64(crashed.AppendedBytes + dirBytes)
	res.Metrics["store_bytes_per_user_byte"] = stored / float64(userBytes)
	res.Metrics["io_bytes_per_op"] = stored / float64(res.Attempted)
	if times == nil {
		return got, unsynced, nil
	}
	for _, c := range []int{opExec, opGetHit} {
		s := sorted(times.point[c])
		res.Metrics["logstore."+opClassNames[c]+"_p50_us"] = quantile(s, 0.5)
		res.Metrics["logstore."+opClassNames[c]+"_p99_us"] = quantile(s, 0.99)
	}
	res.Metrics["logstore.get_miss_p50_us"] = median(times.point[opGetMiss])
	res.Metrics["logstore.scan_mean_ms"] = mean(times.scan)
	res.Metrics["logstore.recovery_ms"] = float64(recovery) / 1e6
	res.Metrics["logstore.wal_bytes_per_user_byte"] = float64(crashed.AppendedBytes) / float64(userBytes)
	res.Metrics["logstore.compactions"] = float64(crashed.Compactions)
	res.Metrics["logstore.merges"] = float64(crashed.Merges)
	res.Metrics["logstore.segments_end"] = float64(recovered.Segments)
	probes := crashed.SegmentProbes - before.SegmentProbes
	res.Metrics["logstore.seg_probes_per_get"] = float64(probes) / float64(len(ops))
	res.Metrics["logstore.bloom_false_positive_share"] =
		float64(crashed.BloomFalsePositives-before.BloomFalsePositives) / float64(max(probes, 1))
	res.Metrics["logstore.replayed_records"] = float64(recovered.ReplayedRecords)
	res.Metrics["logstore.discarded_bytes"] = float64(recovered.DiscardedBytes)
	return got, unsynced, nil
}

// checkAnswers holds logstore to the reference. A call that errored or
// returned a wrong row or absence fails. After the torn reopen every row
// committed before the last Sync() must read back with its version vector,
// and the lost writes must be a non-empty suffix of the unsynced ones only.
func checkAnswers(res *runResult, got, ref *answers, sz storeSizes, unsynced int) {
	for i, s := range got.sums {
		if s != ref.sums[i] {
			res.Failed++
		}
	}
	res.check(res.Failed == 0, "store_results", "%d of %d calls answered differently from information.Store", res.Failed, len(got.sums))

	want := append([]uint64(nil), ref.counters...)
	lost := 0
	for j := 0; j < unsynced; j++ {
		key := unsyncedKey(j, sz)
		switch {
		case got.counters[key] == want[key]+1 && lost == 0:
			want[key]++
		case got.counters[key] == want[key]:
			lost++
		default:
			res.check(false, "lost_suffix", "unsynced write %d to %s is neither intact nor part of a lost suffix", j, rowID(key))
			return
		}
	}
	res.check(lost > 0, "torn_tail", "the torn record cost no write")
	res.check(slices.Equal(got.counters, want), "synced_rows",
		"version vectors after the reopen differ from the information.Store reference")
}

func walPath(dir string) string { return filepath.Join(dir, "wal.log") }

func walSize(dir string) int64 {
	info, err := os.Stat(walPath(dir))
	if err != nil {
		return 0
	}
	return info.Size()
}

// tearWAL cuts wal.log tornBytes into its last record.
func tearWAL(dir string) error {
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		return err
	}
	last, rest := -1, data
	for len(rest) > 0 {
		_, next, err := wire.NextRecord(rest)
		if err != nil {
			return fmt.Errorf("wal.log: record at byte %d: %w", len(data)-len(rest), err)
		}
		last, rest = len(data)-len(rest), next
	}
	if last < 0 {
		return errors.New("wal.log holds no record to tear")
	}
	return os.Truncate(walPath(dir), int64(last+tornBytes))
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
