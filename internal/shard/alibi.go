package shard

// Uncertainty queries across shards. Alibi touches exactly two objects,
// so it is not a sweep fan-out at all: the coordinator fetches each
// object's track from its owning shard's epoch snapshot and runs the
// closed-form decision once. PossiblyWithin is embarrassingly parallel
// in the usual way — each object's possibility intervals depend only on
// its own track, so the per-shard answers merge by disjoint union like
// Within. Both report the snapshot set's tau, keeping the server's
// window-classification discipline intact under concurrent updates.
//
// Both queries go through the per-shard BeadIndex (see bead.go): Alibi
// reuses cached tracks instead of rebuilding sample chains per query,
// and PossiblyWithin collects candidates from the space-time box R-tree
// instead of running the kernel against every chain. The index path is
// bit-identical to the scan (query.PossiblyWithin, query.TrackOf) — the
// broad phase only skips work it can prove fruitless.

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/bead"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
)

// Alibi decides whether objects o1 and o2 could have met during
// [lo, hi] (see query.Alibi). defaultVmax applies to objects without a
// declared speed bound; pass a negative value to require declarations.
// The returned tau is the snapshot set's last-update time.
func (e *Engine) Alibi(o1, o2 mod.OID, lo, hi, defaultVmax float64) (bead.Result, float64, error) {
	start := time.Now()
	snaps := e.Snapshots()
	tau := mod.MaxTau(snaps)
	if o1 == o2 {
		// Same validation the single-source path applies, kept here
		// because the two-snapshot fetch below would happily race an
		// object against itself.
		_, err := query.Alibi(snaps[e.ShardOf(o1)], o1, o2, lo, hi, defaultVmax)
		return bead.Result{}, tau, err
	}
	ixs := e.beadIndexes()
	trackOf := func(o mod.OID) (*bead.Track, error) {
		i := e.ShardOf(o)
		return ixs[i].TrackOf(snaps[i], o, defaultVmax)
	}
	t1, err := trackOf(o1)
	if err != nil {
		return bead.Result{}, tau, err
	}
	t2, err := trackOf(o2)
	if err != nil {
		return bead.Result{}, tau, err
	}
	res, err := bead.Alibi(t1, t2, lo, hi)
	if err != nil {
		return bead.Result{}, tau, err
	}
	dur := time.Since(start)
	e.recordQuery("alibi", dur)
	e.recordBeadAlibi(res, dur)
	return res, tau, nil
}

// validateSpeedBounds is the coordinator's pre-pass for uncertainty
// queries that require declared bounds: it collects the undeclared
// objects of EVERY shard into one ascending NoSpeedBoundError, so the
// error names the same complete object set regardless of the partition
// count or which shard's fan-out task would have failed first.
func (e *Engine) validateSpeedBounds(snaps []*mod.Snap, defaultVmax float64) error {
	if defaultVmax >= 0 && !math.IsNaN(defaultVmax) {
		return nil
	}
	var missing []mod.OID
	for _, s := range snaps {
		for _, o := range s.Objects() {
			if _, ok := s.SpeedBound(o); !ok {
				missing = append(missing, o)
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return &query.NoSpeedBoundError{Objects: missing}
}

// PossiblyWithin fans the uncertainty range query out across the
// shards and merges the disjoint per-shard answers. The returned tau is
// the snapshot set's last-update time.
func (e *Engine) PossiblyWithin(q geom.Vec, dist, lo, hi, defaultVmax float64) (*query.AnswerSet, float64, error) {
	start := time.Now()
	snaps := e.Snapshots()
	tau := mod.MaxTau(snaps)
	if err := e.validateSpeedBounds(snaps, defaultVmax); err != nil {
		return nil, tau, err
	}
	// The question itself is checked here as well as in every shard, in
	// the shards' order: a refusal then reads the same at every partition
	// count instead of once per shard, and nothing is fanned out for it.
	if q.Dim() != e.Dim() {
		return nil, tau, fmt.Errorf("query: point dim %d, database dim %d", q.Dim(), e.Dim())
	}
	if _, err := bead.Within(e.Dim(), q, dist, lo, hi); err != nil {
		return nil, tau, err
	}
	ixs := e.beadIndexes()
	parts := make([]*query.AnswerSet, len(snaps))
	stats := make([]query.BeadStats, len(snaps))
	err := e.forEach(func(i int) error {
		ans, st, perr := ixs[i].PossiblyWithin(snaps[i], q, dist, lo, hi, defaultVmax)
		if perr != nil {
			return perr
		}
		parts[i], stats[i] = ans, st
		return nil
	})
	if err != nil {
		return nil, tau, err
	}
	ans := query.MergeDisjoint(parts...)
	dur := time.Since(start)
	e.recordQuery("possibly-within", dur)
	var total query.BeadStats
	for _, st := range stats {
		total.Population += st.Population
		total.Candidates += st.Candidates
		total.Windows += st.Windows
		total.Pruned += st.Pruned
		total.Kernel += st.Kernel
		total.Closed += st.Closed
	}
	e.recordBeadPW(total, dur)
	return ans, tau, nil
}
