package shard

// Fan-out query execution: a coordinator reads one epoch snapshot per
// shard, lets the shards work on their own objects in parallel (one
// goroutine per shard; GOMAXPROCS bounds how many run at once) and
// merges.
//
// Correctness of the merges:
//
//   - RunPast / Within: membership of an object in a threshold answer
//     f(y,t) <= C depends only on that object's own curve (and the
//     constant curve, which every shard materializes for itself), so
//     the per-shard answer restricted to a shard's objects IS the
//     global answer restricted to them. The merged answer is their
//     disjoint union. Each shard's sweep is bounded at C by
//     query.RunPast, so it only holds the curves that can come down
//     to C.
//
//   - KNN: one sweep, over the whole database. The shards only scan:
//     each builds, per object, the curve over the window with f.Curve
//     and reads its starting value and minimum (query.ScanPast; nothing
//     is swept there). The coordinator hands the scans to
//     query.RunScans, which takes one threshold from the merged starting
//     values, sweeps the objects of every shard that can come down to
//     it, and lets a sentinel curve prove the threshold sufficient — or
//     restarts with a larger one.
//     Nothing here depends on the partition: the pool is the one an
//     unsharded database would sweep, so the answer is the same at
//     every P by construction (DESIGN.md, "Threshold-bounded sweep").
//
// Every query also reports the tau of the snapshot set it ran over
// (mod.MaxTau, the max of the per-shard snapshot taus): under
// concurrent updates the engine's live Tau() keeps moving, and
// classifying the query window (past/future/continuing) against
// anything but the snapshot tau misstates what the answer was computed
// over — the wire-level race this return value fixes (see
// server.handleKNN).

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/query"
)

// forEach runs fn(i) for every shard index, one goroutine per shard
// when there is more than one, and joins the per-shard errors.
func (e *Engine) forEach(fn func(i int) error) error {
	if len(e.shards) == 1 {
		return fn(0)
	}
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunPast fans a past query over the window [lo, hi] out across the
// shards: mk(i) builds the evaluator for shard i (a fresh one per
// shard), each shard sweeps a snapshot of its own objects, and the
// per-shard evaluators are returned for the caller to merge, together
// with the summed sweep work and the tau of the snapshot set. This is
// the generic building block; KNN and Within are the merged
// front-ends.
func (e *Engine) RunPast(f gdist.GDistance, lo, hi float64, mk func(i int) query.Evaluator) ([]query.Evaluator, core.Stats, float64, error) {
	snaps := e.Snapshots()
	tau := mod.MaxTau(snaps)
	evs := make([]query.Evaluator, len(snaps))
	stats := make([]core.Stats, len(snaps))
	err := e.forEach(func(i int) error {
		ev := mk(i)
		start := time.Now()
		st, rerr := query.RunPast(snaps[i], f, lo, hi, ev)
		e.recordSweep(i, st, time.Since(start))
		if rerr != nil {
			return rerr
		}
		evs[i] = ev
		stats[i] = st
		return nil
	})
	var total core.Stats
	for _, st := range stats {
		total.Add(st)
	}
	if err != nil {
		return nil, total, tau, err
	}
	return evs, total, tau, nil
}

// Within evaluates the threshold query f(y,t) <= c over [lo, hi]: each
// shard maintains its own answer (with its own materialized constant
// curve) and the coordinator takes the disjoint union. The returned
// tau is the snapshot set's last-update time — the "now" the answer
// was computed as of.
func (e *Engine) Within(f gdist.GDistance, c float64, lo, hi float64) (*query.AnswerSet, core.Stats, float64, error) {
	start := time.Now()
	evs, st, tau, err := e.RunPast(f, lo, hi, func(int) query.Evaluator { return query.NewWithin(c) })
	if err != nil {
		return nil, st, tau, err
	}
	parts := make([]*query.AnswerSet, len(evs))
	for i, ev := range evs {
		parts[i] = ev.(*query.Within).Answer()
	}
	ans := query.MergeDisjoint(parts...)
	e.recordQuery("within", time.Since(start))
	return ans, st, tau, nil
}

// KNN evaluates the k-nearest-neighbors query over [lo, hi]: the shards
// scan their objects in parallel and the coordinator runs one bounded,
// sentinel-guarded sweep over the merged pool (see the package
// comment). The sweep's work is recorded under the coordinator's label,
// or under shard 0 when there is nothing to merge. The returned tau is
// the snapshot set's last-update time.
func (e *Engine) KNN(f gdist.GDistance, k int, lo, hi float64) (*query.AnswerSet, core.Stats, float64, error) {
	start := time.Now()
	snaps := e.Snapshots()
	tau := mod.MaxTau(snaps)
	scans := make([]*query.Scan, len(snaps))
	err := e.forEach(func(i int) error {
		var serr error
		scans[i], serr = query.ScanPast(snaps[i], f, lo, hi)
		return serr
	})
	if err != nil {
		return nil, core.Stats{}, tau, err
	}
	label := -1
	if len(snaps) == 1 {
		label = 0
	}
	knn := query.NewKNN(k)
	sweepStart := time.Now()
	run, err := query.RunScans(scans, knn)
	e.recordSweep(label, run.Stats, time.Since(sweepStart))
	if err != nil {
		return nil, run.Stats, tau, err
	}
	e.recordCandidates(run.Pool)
	e.recordQuery("knn", time.Since(start))
	return knn.Answer(), run.Stats, tau, nil
}
