package shard

// Uncertainty broad-phase wiring: each shard owns one query.BeadIndex
// (track cache + space-time box R-tree over its own objects), created
// lazily on the first uncertainty query so engines that never ask one
// pay nothing. The indexes synchronize themselves against each query's
// snapshot, so no engine mutation path needs to know they exist.
//
// query.PossiblyWithin / query.TrackOf — the straightforward per-chain
// scan the broad phase must agree with bit for bit — stay in
// internal/query as the reference the differential tests call directly;
// the engine itself has one execution path.

import "repro/internal/query"

// beadIndexes returns the per-shard broad-phase indexes, creating them
// on first use.
func (e *Engine) beadIndexes() []*query.BeadIndex {
	e.beadMu.Lock()
	defer e.beadMu.Unlock()
	if e.beadIx == nil {
		ixs := make([]*query.BeadIndex, len(e.shards))
		for i, db := range e.shards {
			ixs[i] = query.NewBeadIndex(db)
		}
		e.beadIx = ixs
	}
	return e.beadIx
}
