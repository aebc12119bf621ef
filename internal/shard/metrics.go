package shard

// Observability wiring: an Engine optionally records its work into an
// obs.Registry. Everything here is nil-safe — an uninstrumented engine
// (tests, embedded use) pays one atomic pointer load per record point.
//
// The measured series follow the paper's cost model: a past sweep is
// O((m+N) log N) (Theorem 4), so the support-change count m — events
// and swaps — is the headline counter, reschedules approximate the
// constant factor, and the max queue length watches Lemma 9's <= N
// bound. Per-shard labels expose partition skew; the histograms
// (per-shard sweep latency, whole-query latency, k-NN candidate-pool
// size) localize where a slow query spent its time.

import (
	"strconv"
	"time"

	"repro/internal/bead"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
)

// metrics is the engine's instrument set.
type metrics struct {
	updates      *obs.CounterVec   // applied updates, by shard
	updateErrors *obs.Counter      // rejected updates (chronology, dim, ...)
	events       *obs.CounterVec   // sweep intersection events, by shard
	swaps        *obs.CounterVec   // order exchanges, by shard
	reschedules  *obs.CounterVec   // pair-event computations, by shard
	maxQueue     *obs.GaugeVec     // high-water event-queue length, by shard
	sweepSecs    *obs.HistogramVec // one shard's sweep duration, by shard
	querySecs    *obs.HistogramVec // whole fan-out query duration, by kind
	candidates   *obs.Histogram    // merged k-NN candidate-pool size
	batchSize    *obs.Histogram    // updates per ApplyBatch call

	// Uncertainty (bead) query series: how much work the broad phase
	// did and, more importantly, avoided (see internal/query.BeadIndex).
	beadQueries    *obs.CounterVec   // uncertainty queries, by kind
	beadCandidates *obs.Histogram    // broad-phase candidates per possibly-within
	beadPruned     *obs.CounterVec   // work rejected before the kernel, by stage
	beadKernel     *obs.Counter      // closed-form kernel invocations
	beadClosed     *obs.Counter      // cap windows the cap pass decided without the kernel
	beadSecs       *obs.HistogramVec // uncertainty query duration, by kind
}

// coordLabel tags the coordinator's final k-NN sweep in per-shard
// series (it sweeps the merged candidate pool, not a partition).
const coordLabel = "coord"

// Instrument registers the engine's metrics in reg and starts
// recording. Call once, before serving traffic; the instruments are
// lock-free, so recording never contends with queries or updates.
func (e *Engine) Instrument(reg *obs.Registry) {
	m := &metrics{
		updates: reg.NewCounterVec("mod_updates_total",
			"updates applied, by owning shard", "shard"),
		updateErrors: reg.NewCounter("mod_update_errors_total",
			"updates rejected (chronology, dimension, unknown object)"),
		events: reg.NewCounterVec("mod_sweep_events_total",
			"intersection events processed by query sweeps (Theorem 4's m)", "shard"),
		swaps: reg.NewCounterVec("mod_sweep_swaps_total",
			"order exchanges among g-distance curves", "shard"),
		reschedules: reg.NewCounterVec("mod_sweep_reschedules_total",
			"adjacency event computations", "shard"),
		maxQueue: reg.NewGaugeVec("mod_sweep_max_queue_len",
			"high-water event-queue length (Lemma 9 bounds it by N)", "shard"),
		sweepSecs: reg.NewHistogramVec("mod_shard_sweep_seconds",
			"one shard's sweep duration within a fan-out query",
			obs.DefLatencyBuckets, "shard"),
		querySecs: reg.NewHistogramVec("mod_query_seconds",
			"whole query duration including fan-out and merge",
			obs.DefLatencyBuckets, "kind"),
		candidates: reg.NewHistogram("mod_knn_candidates",
			"merged candidate-pool size of sharded k-NN queries", obs.DefSizeBuckets),
		batchSize: reg.NewHistogram("mod_update_batch_size",
			"updates per ApplyBatch call", obs.DefSizeBuckets),
		beadQueries: reg.NewCounterVec("bead_queries_total",
			"uncertainty queries answered, by kind", "kind"),
		beadCandidates: reg.NewHistogram("bead_broadphase_candidates",
			"objects the broad phase could not rule out per possibly-within query",
			obs.DefSizeBuckets),
		beadPruned: reg.NewCounterVec("bead_broadphase_pruned_total",
			"work rejected before the exact kernel: whole objects by box/cap miss, bead windows by the bounding-ball distance test",
			"stage"),
		beadKernel: reg.NewCounter("bead_kernel_invocations_total",
			"closed-form feasibility kernel invocations by uncertainty queries"),
		beadClosed: reg.NewCounter("bead_cap_windows_decided_total",
			"possibly-within cap windows the broad phase's cap pass decided without the kernel"),
		beadSecs: reg.NewHistogramVec("bead_query_seconds",
			"uncertainty query duration including broad phase and kernel, by kind",
			obs.DefLatencyBuckets, "kind"),
	}
	e.metrics.Store(m)

	// The subscription registry instruments into the same obs registry.
	// It is created lazily (Subscriptions), so remember reg for a later
	// creation and instrument an already-live registry now.
	e.subMu.Lock()
	e.subObs = reg
	r := e.subReg
	e.subMu.Unlock()
	if r != nil {
		r.Instrument(reg)
	}
}

// shardLabel renders a shard index for the per-shard series.
func shardLabel(i int) string {
	if i < 0 {
		return coordLabel
	}
	return strconv.Itoa(i)
}

// recordUpdate counts one routed update.
func (e *Engine) recordUpdate(shard int, err error) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	if err != nil {
		m.updateErrors.Inc()
		return
	}
	m.updates.With(shardLabel(shard)).Inc()
}

// recordUpdates counts a batch of n routed updates applied by one
// shard, plus the rejection that stopped the group, if any.
func (e *Engine) recordUpdates(shard, n int, err error) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	if n > 0 {
		m.updates.With(shardLabel(shard)).Add(uint64(n))
	}
	if err != nil {
		m.updateErrors.Inc()
	}
}

// recordBatch observes one ApplyBatch call's size.
func (e *Engine) recordBatch(n int) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	m.batchSize.Observe(float64(n))
}

// recordSweep folds one sweep's work into the per-shard series; shard
// -1 is the k-NN coordinator's final sweep.
func (e *Engine) recordSweep(shard int, st core.Stats, dur time.Duration) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	l := shardLabel(shard)
	m.events.With(l).Add(uint64(st.Events))
	m.swaps.With(l).Add(uint64(st.Swaps))
	m.reschedules.With(l).Add(uint64(st.Reschedules))
	m.maxQueue.With(l).SetMax(float64(st.MaxQueueLen))
	m.sweepSecs.With(l).Observe(dur.Seconds())
}

// recordQuery observes one whole fan-out query.
func (e *Engine) recordQuery(kind string, dur time.Duration) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	m.querySecs.With(kind).Observe(dur.Seconds())
}

// recordBeadPW folds one broad-phase possibly-within query's work
// statistics into the bead series.
func (e *Engine) recordBeadPW(st query.BeadStats, dur time.Duration) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	m.beadQueries.With("possibly-within").Inc()
	m.beadCandidates.Observe(float64(st.Candidates))
	if n := st.Population - st.Candidates; n > 0 {
		m.beadPruned.With("objects").Add(uint64(n))
	}
	if st.Pruned > 0 {
		m.beadPruned.With("windows").Add(uint64(st.Pruned))
	}
	m.beadKernel.Add(uint64(st.Kernel))
	m.beadClosed.Add(uint64(st.Closed))
	m.beadSecs.With("possibly-within").Observe(dur.Seconds())
}

// recordBeadAlibi folds one alibi decision's work into the bead series.
// Result.Checked counts examined windows; of those, Pruned never
// reached the kernel.
func (e *Engine) recordBeadAlibi(res bead.Result, dur time.Duration) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	m.beadQueries.With("alibi").Inc()
	if res.Pruned > 0 {
		m.beadPruned.With("windows").Add(uint64(res.Pruned))
	}
	if k := res.Checked - res.Pruned; k > 0 {
		m.beadKernel.Add(uint64(k))
	}
	m.beadSecs.With("alibi").Observe(dur.Seconds())
}

// recordCandidates observes a sharded k-NN's merged pool size.
func (e *Engine) recordCandidates(n int) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	m.candidates.Observe(float64(n))
}
