package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with lock-free observation.
// Buckets are defined by strictly increasing upper bounds; an implicit
// +Inf bucket catches everything above the last bound. Counts are
// per-bucket (not cumulative); the Prometheus writer accumulates at
// exposition time.
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// DefLatencyBuckets spans 100µs .. 60s exponentially — wide enough for
// both a sub-millisecond sharded sweep and a pathological full-window
// query, matching the spread observed in the E1–E10 experiments.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// DefSizeBuckets spans 1 .. 1e6 for object/candidate counts.
var DefSizeBuckets = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
	10000, 50000, 100000, 500000, 1e6,
}

// checkBounds validates and copies bucket upper bounds.
func checkBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	out := make([]float64, len(bounds))
	copy(out, bounds)
	for i, b := range out {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: non-finite bucket bound %g", b))
		}
		if i > 0 && out[i-1] >= b {
			panic(fmt.Sprintf("obs: bucket bounds not strictly increasing at %g", b))
		}
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	return newHistogramChecked(checkBounds(bounds))
}

// newHistogramChecked builds a histogram over already-validated bounds
// (shared, not copied — HistogramVec children all alias one slice).
func newHistogramChecked(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v; len(bounds) = +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Merge folds o's observations into h. Both histograms must share the
// same bucket bounds (the invariant that makes per-shard histograms
// roll up exactly: merge is associative and commutative, like
// core.Stats.Add). o keeps its contents. Concurrent observations on o
// during a merge may be split across the two histograms but are never
// lost or double-counted per field.
func (h *Histogram) Merge(o *Histogram) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("obs: merge of histograms with %d vs %d buckets", len(h.bounds), len(o.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] { //modlint:allow floatcmp -- bounds are configuration constants compared for identity, not computed values
			return fmt.Errorf("obs: merge of histograms with different bounds at bucket %d", i)
		}
	}
	for i := range o.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	d := math.Float64frombits(o.sumBits.Load())
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return nil
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot copies the bucket counts (per-bucket, not cumulative).
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket that contains it. Values in the +Inf
// bucket report the last finite bound; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				// +Inf bucket: no upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// Summary is a compact JSON-ready digest of a histogram — the form the
// JSON view of a registry renders it in.
type Summary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary digests the current state.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}
