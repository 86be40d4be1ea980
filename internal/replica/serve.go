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
// divergent Merkle leaf buckets: the caller's ids the responder's scoped
// digest for those buckets has not fully seen (the want-list), plus the
// rows the caller's scoped digest has not fully seen. The per-caller tree
// is already placement-scoped, so the partial-replication cut is built in.
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
	var want []string
	for id, vv := range req.Digest {
		if seen, ok := scopedDigest[id]; ok && seen.Dominates(vv) {
			continue
		}
		want = append(want, id)
	}
	sort.Strings(want)
	return syncResp{Site: r.site, Want: want, Deltas: r.serveDeltas(deltas)}
}

// serveDeltas counts the rows a response carries as served.
func (r *Replicator) serveDeltas(deltas []*information.Object) []*information.Object {
	if len(deltas) > 0 {
		r.bump(func(s *Stats) { s.DeltasServed += int64(len(deltas)) })
	}
	return deltas
}

// serveDigest answers one Merkle negotiation step: for every offered
// internal frame that mismatches the responder's tree, a children record;
// on a mismatched opening call (HW present) also the responder's
// high-water marks and the fast-path rows the caller's marks prove it
// lacks. A matched root carries no marks: the caller is done.
func (r *Replicator) serveDigest(req digestReq) (digestResp, error) {
	r.bump(func(s *Stats) { s.ServedDigests++ })
	tree := r.treeFor(req.Site)
	frames, err := wire.DecodeTreeFrames(req.Frames)
	if err != nil {
		return digestResp{}, err
	}
	// Keep the mismatched internal frames: each answers with one children
	// record, so the reply is written straight into one exact-size buffer.
	internal, match := frames[:0], true
	for _, f := range frames {
		level, index := wire.TreePathParts(f.Path)
		if local, ok := tree.NodeHash(level, index); ok && local != f.Hash {
			match = false
			if level < information.MerkleDepth {
				internal = append(internal, f)
			}
		}
	}
	resp := digestResp{Site: r.site, Match: match}
	if n := len(internal); n > 0 {
		resp.Children = wire.AppendUint64(make([]byte, 0, 8+childRecordSize*n), uint64(n))
		var kids [information.MerkleFanout]uint64
		for _, f := range internal {
			level, index := wire.TreePathParts(f.Path)
			resp.Children = wire.AppendUint64(resp.Children, f.Path)
			for _, h := range tree.AppendChildren(kids[:0], level, index) {
				resp.Children = wire.AppendUint64(resp.Children, h)
			}
		}
	}
	if req.HW != nil && !resp.Match {
		resp.HW = tree.HighWater()
		resp.Deltas = r.serveDeltas(r.newerThanHW(tree, req.HW, req.Site))
	}
	return resp, nil
}
