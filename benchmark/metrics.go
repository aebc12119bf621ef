package main

import (
	"fmt"
)

// metricDef is one metric of the contract in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports every one of them, so the two latencies
// are named by slot, not by op: op1 and op2 are the workload's two gated
// ops (workloadDef.slots). The latencies of every op by its own name,
// and their tails, are the client.* layer metrics: on two shared cores
// a p90 spreads 6-11 % between quiet runs of one commit, too wide to
// gate.
//
// Every bound is 0.25, the most the contract allows. The sandbox has
// stretches of several minutes in which everything runs 15-30 % slower;
// a set of ten runs that catches one spreads 16-22 % on any wall-clock
// metric (baseline/set-A.json did), and a bound below its own noise
// would reject the benchmark, not a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op1_p50_ms", "ms", "lower", 0.25},
	{"op2_p50_ms", "ms", "lower", 0.25},
}

// perLayer lists the per-layer metrics: each is prefixed with the
// module it measures. A workload that never enters a layer reports 0
// for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, o := range opName {
		add("client."+o+"_p50_ms", "ms", "lower")
		add("client."+o+"_p90_ms", "ms", "lower")
		add("client."+o+"_p99_ms", "ms", "lower")
		add("client."+o+"_max_ms", "ms", "lower")
		add("client.transport_"+o+"_ms", "ms", "lower")
		add("server."+o+"_self_ms", "ms", "lower")
	}
	add("client.updates_per_s", "1/s", "higher")
	add("server.resp_bytes_per_op", "B", "lower")
	add("server.busy_s", "s", "lower")

	add("shard.fanout_merge_ms", "ms", "lower")
	add("shard.knn_candidates_per_query", "count", "lower")
	add("shard.apply_us", "us", "lower")
	add("shard.batch_apply_us", "us", "lower")

	add("query.runpast_ms", "ms", "lower")
	add("core.events_per_query", "count", "lower")
	add("core.swaps_per_query", "count", "lower")
	add("core.reschedules_per_query", "count", "lower")
	add("core.max_queue_len", "count", "lower")
	add("core.ns_per_event", "ns", "lower")

	add("mod.epoch_snapshot_rebuild_us", "us", "lower")
	add("mod.epoch_snapshot_hit_ns", "ns", "lower")
	add("mod.decode_batch_us", "us", "lower")
	add("mod.encode_batch_us", "us", "lower")
	add("mod.snapshot_copy_ms", "ms", "lower")

	add("bead.candidates_per_query", "count", "lower")
	add("bead.pruned_per_query", "count", "higher")
	add("bead.kernel_calls_per_query", "count", "lower")
	add("bead.prune_ratio", "%", "higher")
	add("bead.alibi_us", "us", "lower")
	add("query.beadindex_pwithin_ms", "ms", "lower")
	add("query.beadindex_sync_ms", "ms", "lower")

	add("sub.routed_per_update", "count", "lower")
	add("sub.deltas_per_update", "count", "lower")
	add("sub.wakeups_per_update", "count", "lower")
	add("sub.coalesces", "count", "lower")
	add("sub.resyncs", "count", "lower")
	add("sub.evictions", "count", "lower")
	add("sub.delta_lag_p50_ms", "ms", "lower")
	add("sub.delta_lag_p90_ms", "ms", "lower")

	add("durable.fsyncs_per_update", "count", "lower")
	add("durable.entries_per_fsync", "count", "higher")
	add("durable.commit_wait_ms_per_ack", "ms", "lower")
	add("durable.checkpoints", "count", "higher")
	add("durable.checkpoint_s_mean", "s", "lower")
	add("durable.checkpoint_snapshot_bytes", "B", "lower")
	add("durable.journal_bytes_per_update", "B", "lower")
	add("durable.recovery_s", "s", "lower")
	add("durable.recovery_replayed", "count", "lower")

	add("proc.cpu_ms_per_op", "ms", "lower")
	add("proc.rss_peak_mb", "MB", "lower")
	add("proc.gc_pause_ms", "ms", "lower")
	add("proc.alloc_mb_per_s", "MB/s", "lower")

	add("trace.ops_per_s_ratio", "%", "higher")
	return defs
}

// report collects metric values and refuses names the contract does
// not list, so a typo cannot silently drop a metric.
type report struct {
	defs   map[string]metricDef
	values map[string]metric
}

func newReport(defs []metricDef) *report {
	r := &report{defs: map[string]metricDef{}, values: map[string]metric{}}
	for _, d := range defs {
		r.defs[d.Name] = d
	}
	return r
}

func (r *report) set(name string, v float64) {
	d, ok := r.defs[name]
	if !ok {
		panic(fmt.Sprintf("metric %q is not in the contract", name))
	}
	r.values[name] = metric{Value: v, Unit: d.Unit}
}

// complete returns the values with every metric not set reported as 0.
func (r *report) complete() map[string]metric {
	for name, d := range r.defs {
		if _, ok := r.values[name]; !ok {
			r.values[name] = metric{Unit: d.Unit}
		}
	}
	return r.values
}

// endToEndMetrics computes the end-to-end metrics of one measurement.
func endToEndMetrics(m *measurement) map[string]metric {
	r := newReport(endToEnd)
	r.set("setup_s", median(m.setupSeconds))
	r.set("ops_per_s", m.drive.opsPerSecond())
	for i, o := range m.w.slots {
		r.set(fmt.Sprintf("op%d_p50_ms", i+1), m.drive.sliceMedian(o, func(ms []float64) float64 { return percentile(ms, 50) }))
	}
	return r.complete()
}

// childLayerMetrics fills in the per-layer metrics that are read from
// outside the server: the client's own samples, the deltas of the
// server's counters across the window, and /proc.
func childLayerMetrics(r *report, m *measurement) {
	d := m.drive
	ops := float64(d.attempted() - d.failed())
	updates, respBytes := 0.0, 0.0
	for i := range d.lanes {
		updates += float64(d.lanes[i].updates)
		respBytes += float64(d.lanes[i].respBytes)
	}
	for o := op(0); o < numOps; o++ {
		ms := d.latencies(o)
		if len(ms) == 0 {
			continue
		}
		r.set("client."+opName[o]+"_p50_ms", percentile(ms, 50))
		if supported(len(ms), 90) {
			r.set("client."+opName[o]+"_p90_ms", percentile(ms, 90))
		}
		if supported(len(ms), 99) {
			r.set("client."+opName[o]+"_p99_ms", percentile(ms, 99))
		}
		r.set("client."+opName[o]+"_max_ms", ms[len(ms)-1])
	}
	r.set("client.updates_per_s", updates/d.seconds)
	r.set("server.resp_bytes_per_op", ratio(respBytes, ops))

	c := m.after.obs.minus(m.before.obs)
	// Busy time of the timed endpoints only: the watch stream's handler
	// runs for the whole drive and would drown them.
	busy := 0.0
	for _, path := range opPath {
		busy += c["mod_http_request_seconds{endpoint=POST "+path+"}.sum"]
	}
	r.set("server.busy_s", busy)

	// Work counts per query: on the static workloads from the replay,
	// where they repeat exactly for a seed, otherwise from the window.
	w := c
	if m.replayed != nil {
		w = m.replayed
	}
	r.set("shard.knn_candidates_per_query", ratio(w["mod_knn_candidates.sum"], w["mod_knn_candidates.count"]))
	sweeps := w["mod_query_seconds{kind=knn}.count"] + w["mod_query_seconds{kind=within}.count"]
	r.set("core.events_per_query", ratio(w.total("mod_sweep_events_total", ""), sweeps))
	r.set("core.swaps_per_query", ratio(w.total("mod_sweep_swaps_total", ""), sweeps))
	r.set("core.reschedules_per_query", ratio(w.total("mod_sweep_reschedules_total", ""), sweeps))
	r.set("core.max_queue_len", m.after.obs.highest("mod_sweep_max_queue_len"))

	beads := w.total("bead_queries_total", "")
	pruned, kernel := w["bead_broadphase_pruned_total{stage=windows}"], w["bead_kernel_invocations_total"]
	r.set("bead.candidates_per_query", ratio(w["bead_broadphase_candidates.sum"], w["bead_broadphase_candidates.count"]))
	r.set("bead.pruned_per_query", ratio(w.total("bead_broadphase_pruned_total", ""), beads))
	r.set("bead.kernel_calls_per_query", ratio(kernel, beads))
	r.set("bead.prune_ratio", 100*ratio(pruned, pruned+kernel))

	applied := c.total("mod_updates_total", "")
	r.set("sub.routed_per_update", ratio(c["sub_updates_routed_total"], applied))
	r.set("sub.deltas_per_update", ratio(c["sub_deltas_total"], applied))
	r.set("sub.wakeups_per_update", ratio(c["sub_wakeups_total"], applied))
	r.set("sub.coalesces", c["sub_coalesces_total"])
	r.set("sub.resyncs", c["sub_resyncs_total"])
	r.set("sub.evictions", c["sub_evictions_total"])
	if lags := deltaLags(d.watch, d.sends); len(lags) > 0 {
		r.set("sub.delta_lag_p50_ms", percentile(lags, 50))
		r.set("sub.delta_lag_p90_ms", percentile(lags, 90))
	}

	if m.w.durable {
		r.set("durable.fsyncs_per_update", ratio(c["mod_commit_fsyncs_total"], applied))
		r.set("durable.entries_per_fsync", ratio(c["mod_commit_entries_total"], c["mod_commit_fsyncs_total"]))
		r.set("durable.commit_wait_ms_per_ack", 1000*ratio(c["mod_commit_wait_seconds.sum"], c["mod_commit_wait_seconds.count"]))
		r.set("durable.checkpoints", c["mod_checkpoints_total"])
		r.set("durable.checkpoint_s_mean", ratio(c["mod_checkpoint_seconds.sum"], c["mod_checkpoint_seconds.count"]))
		r.set("durable.checkpoint_snapshot_bytes", m.after.obs["mod_checkpoint_snapshot_bytes"])
		r.set("durable.journal_bytes_per_update", ratio(float64(m.after.dir-m.before.dir), applied))
		r.set("durable.recovery_s", m.recovery["mod_recovery_seconds"])
		r.set("durable.recovery_replayed", m.recovery["mod_recovery_replayed_total"])
	}

	r.set("proc.cpu_ms_per_op", 1000*ratio(m.after.proc.cpuSeconds-m.before.proc.cpuSeconds, ops))
	r.set("proc.rss_peak_mb", m.after.proc.rssPeakMB)
	r.set("proc.gc_pause_ms", (m.after.mem.PauseTotalNs-m.before.mem.PauseTotalNs)/1e6)
	r.set("proc.alloc_mb_per_s", (m.after.mem.TotalAlloc-m.before.mem.TotalAlloc)/(1<<20)/d.seconds)
}
