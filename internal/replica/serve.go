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
	r.ep.MustRegister(MethodSync, rpc.Handle(func(_ netsim.Address, req syncReq) (syncResp, error) {
		if len(req.Scope) == 0 {
			return syncResp{}, errUnscoped
		}
		r.bump(func(s *Stats) { s.ServedDigests++ })
		return r.serveScopedSync(req), nil
	}))
	r.ep.MustRegister(MethodDigest, rpc.Handle(func(from netsim.Address, req digestReq) (digestResp, error) {
		return r.serveDigest(from, req)
	}))
	r.ep.MustRegister(MethodPush, rpc.HandleRefused(func(_ netsim.Address, _ wire.TraceContext, req pushReq) (pushResp, error) {
		applied := r.applyRows(req.Objects)
		r.bump(func(s *Stats) { s.ServedApplied += int64(applied) })
		if applied > 0 {
			// Infected becomes infectious: on a sparse peering graph the
			// rows just applied must keep flooding, and only this replica's
			// own round reaches ITS peers. On a full mesh this costs at most
			// one no-op round — the re-armed round moves nothing and the
			// replicator goes dormant again.
			r.SyncSoon()
		}
		return pushResp{Applied: uint64(applied)}, nil
	}, r.Refused))
}

// serveScopedSync answers a digest exchange narrowed to the caller's
// divergent Merkle leaf buckets: the caller's ids the responder's scoped
// digest for those buckets has not fully seen (the want-list), plus the
// rows the caller's scoped digest has not fully seen.
func (r *Replicator) serveScopedSync(req syncReq) syncResp {
	tree := r.space.Tree()
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
	return syncResp{Want: want, Deltas: r.serveDeltas(deltas)}
}

// serveDeltas counts the rows a response carries as served.
func (r *Replicator) serveDeltas(deltas []*information.Object) []*information.Object {
	if len(deltas) > 0 {
		r.bump(func(s *Stats) { s.DeltasServed += int64(len(deltas)) })
	}
	return deltas
}

// serveDigest answers one Merkle negotiation step from caller. A matched
// root carries nothing more: the caller is done. On a mismatched marks
// pass the reply carries the responder's own marks and the rows the
// caller's marks prove it lacks, and the root's children only when the
// marks explain nothing — no rows for the caller, and no caller mark past
// the responder's own — since only then will the caller descend. Marks
// that cannot be rebuilt draw Full and the responder's marks alone. Every
// other offered internal frame that mismatches draws one children record.
func (r *Replicator) serveDigest(caller netsim.Address, req digestReq) (digestResp, error) {
	r.bump(func(s *Stats) { s.ServedDigests++ })
	tree := r.space.Tree()
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
	resp := digestResp{Match: match}
	if req.Marks.Section != nil {
		// Rebuilt even when the roots match: the next delta is from it.
		marks, ok := r.inMarks(caller, req.Marks, true)
		resp.Full = !ok
		if !match {
			resp.Marks = r.outMarks(caller, tree, false)
			if !ok {
				return resp, nil
			}
			resp.Deltas = r.serveDeltas(r.newerThanMarks(tree, marks))
			if len(resp.Deltas) > 0 || tree.MarksAhead(marks) {
				return resp, nil
			}
		}
	}
	if n := len(internal); n > 0 {
		resp.Children = wire.AppendUvarint(make([]byte, 0, wire.UvarintLen(uint64(n))+childRecordSize*n), uint64(n))
		var kids [information.MerkleFanout]uint64
		for _, f := range internal {
			level, index := wire.TreePathParts(f.Path)
			resp.Children = wire.AppendUint64(resp.Children, f.Path)
			for _, h := range tree.AppendChildren(kids[:0], level, index) {
				resp.Children = wire.AppendUint64(resp.Children, h)
			}
		}
	}
	return resp, nil
}
