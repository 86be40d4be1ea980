package replica

import (
	"errors"
	"sort"

	"mocca/internal/information"
	"mocca/internal/netsim"
	"mocca/internal/rpc"
	"mocca/internal/vclock"
	"mocca/internal/wire"
)

// errUnscoped refuses a replica.sync request that names no leaf buckets:
// the whole-space digest exchange no longer exists, and an unvalidated
// request must not be answered with every row.
var errUnscoped = errors.New("replica: sync request without a scope")

// register installs the protocol handlers. All are pure local compute,
// so the synchronous handler form is safe under the simulated clock.
func (r *Replicator) register() {
	r.ep.MustRegister(MethodSync, rpc.HandleJSON(func(_ netsim.Address, req syncReq) (syncResp, error) {
		if len(req.Scope) == 0 {
			return syncResp{}, errUnscoped
		}
		r.bump(func(s *Stats) { s.ServedDigests++ })
		return r.serveScopedSync(req), nil
	}))
	r.ep.MustRegister(MethodDigest, rpc.HandleJSON(func(_ netsim.Address, req digestReq) (digestResp, error) {
		return r.serveDigest(req)
	}))
	r.ep.MustRegister(MethodPush, rpc.HandleJSON(func(_ netsim.Address, req pushReq) (pushResp, error) {
		var resp pushResp
		resp.Applied, resp.Conflicts, resp.Refused = r.applyRows(req.Objects)
		// Migrated edges: recorded best-effort AFTER the rows, so edges
		// between rows of the same batch land. An edge whose other
		// endpoint is not held here cannot be recorded (cross-site edges
		// are the relationship-graph-replication open item) and is
		// skipped.
		for _, rel := range req.Relations {
			_ = r.space.Relate(rel.From, information.RelKind(rel.Kind), rel.To)
		}
		r.bump(func(s *Stats) { s.ServedApplied += int64(resp.Applied) })
		if resp.Applied > 0 {
			// Infected becomes infectious: on a sparse peering graph the
			// rows just applied must keep flooding, and only this replica's
			// own round reaches ITS peers. On a full mesh this costs at most
			// one no-op round — the re-armed round moves nothing and the
			// replicator goes dormant again.
			r.SyncSoon()
		}
		return resp, nil
	}))
}

// serveScopedSync answers a digest exchange narrowed to the caller's
// divergent Merkle leaf buckets: the responder's scoped digest for those
// buckets plus the rows the caller's scoped digest has not fully seen.
// The per-caller tree is already placement-scoped, so the partial-
// replication cut is built in.
func (r *Replicator) serveScopedSync(req syncReq) syncResp {
	tree := r.treeFor(req.Site)
	// The caller's digest covers the same buckets: its size is the hint.
	scopedDigest := make(map[string]vclock.Version, len(req.Digest))
	for _, b := range req.Scope {
		tree.LeafDigestInto(scopedDigest, b)
	}
	var deltas []*information.Object
	for id, vv := range scopedDigest {
		if seen, ok := req.Digest[id]; ok && seen.Dominates(vv) {
			continue
		}
		if obj, ok := r.space.Fetch(id); ok {
			deltas = append(deltas, obj)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].ID < deltas[j].ID })
	return syncResp{Site: r.site, Digest: scopedDigest, Deltas: r.serveDeltas(deltas)}
}

// serveDeltas counts the rows a response carries as served.
func (r *Replicator) serveDeltas(deltas []*information.Object) []*information.Object {
	if len(deltas) > 0 {
		r.bump(func(s *Stats) { s.DeltasServed += int64(len(deltas)) })
	}
	return deltas
}

// serveDigest answers one Merkle negotiation step: for every offered
// frame that mismatches the responder's tree, the node's children; on
// the opening call (HW present) also the responder's high-water marks
// and the fast-path rows the caller's marks prove it lacks.
func (r *Replicator) serveDigest(req digestReq) (digestResp, error) {
	r.bump(func(s *Stats) { s.ServedDigests++ })
	tree := r.treeFor(req.Site)
	frames, err := wire.DecodeTreeFrames(req.Frames)
	if err != nil {
		return digestResp{}, err
	}
	// Keep the mismatched frames, counting the internal ones: each answers
	// with exactly MerkleFanout children, so the reply is written straight
	// into one exact-size buffer in wire.AppendTreeFrames' layout.
	mismatched, internal := frames[:0], 0
	for _, f := range frames {
		level, index := wire.TreePathParts(f.Path)
		if local, ok := tree.NodeHash(level, index); ok && local != f.Hash {
			mismatched = append(mismatched, f)
			if level < information.MerkleDepth {
				internal++
			}
		}
	}
	resp := digestResp{Site: r.site, Match: len(mismatched) == 0}
	if n := internal * information.MerkleFanout; n > 0 {
		resp.Frames = wire.AppendUint64(make([]byte, 0, 8+16*n), uint64(n))
		var kids [information.MerkleFanout]uint64
		for _, f := range mismatched {
			level, index := wire.TreePathParts(f.Path)
			base := index * information.MerkleFanout
			for j, h := range tree.AppendChildren(kids[:0], level, index) {
				resp.Frames = wire.AppendUint64(resp.Frames, wire.PackTreePath(level+1, base+uint32(j)))
				resp.Frames = wire.AppendUint64(resp.Frames, h)
			}
		}
	}
	if req.HW != nil {
		resp.HW = tree.HighWater()
		if !resp.Match {
			resp.Deltas = r.serveDeltas(r.newerThanHW(tree, req.HW, req.Site))
		}
	}
	return resp, nil
}
