// Package baseline implements the comparison algorithms the paper argues
// against:
//
//   - SR01: the Song–Roussopoulos [26] approach to k-NN for a moving
//     query point over stationary objects — an R-tree plus periodic range
//     re-searching. The paper's Section 5 notes it "gives a correct query
//     result only at the time of search following the update" and misses
//     order exchanges between searches (the time-C exchange of Figure 2);
//     experiment E7 quantifies exactly that.
//
//   - AllPairsKNN: the quantifier-elimination / cell-decomposition
//     evaluation of Proposition 1 (delegates to internal/cql), the
//     recompute-from-scratch baseline of experiment E5.
//
// The comparison helpers measure how a sampled answer diverges from the
// sweep's exact answer timeline.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cql"
	"repro/internal/mod"
	"repro/internal/rtree"
	"repro/internal/trajectory"
)

// SampledAnswer is a piecewise-constant answer timeline: Sets[i] holds
// from Times[i] until Times[i+1].
type SampledAnswer struct {
	Times []float64
	Sets  [][]mod.OID
}

// SetAt returns the answer in force at time t (the last sample <= t).
func (sa SampledAnswer) SetAt(t float64) []mod.OID {
	i := sort.SearchFloat64s(sa.Times, t)
	if i < len(sa.Times) && sa.Times[i] == t { //modlint:allow floatcmp -- binary-search hit against stored sample times is bit-identical
		return sa.Sets[i]
	}
	if i == 0 {
		return nil
	}
	return sa.Sets[i-1]
}

// SR01Config configures the Song–Roussopoulos baseline.
type SR01Config struct {
	// K is the number of neighbors.
	K int
	// Period is the re-search period (their approach re-computes at
	// each update/search; with a moving query point this is the sample
	// interval).
	Period float64
	// Fanout configures the R-tree (default rtree.DefaultFanout).
	Fanout int
}

// SR01KNN runs the baseline over [lo, hi]: bulk-load the stationary
// objects into an R-tree, then at each sample instant run a range search
// around the query's current position with a radius carried over from
// the previous sample (expanded by the query's displacement), falling
// back to a fresh best-first k-NN search when the range misses. Returns
// the sampled answer timeline and the number of R-tree searches issued.
func SR01KNN(db *mod.DB, query trajectory.Trajectory, cfg SR01Config, lo, hi float64) (SampledAnswer, int, error) {
	if cfg.K < 1 {
		return SampledAnswer{}, 0, errors.New("baseline: K < 1")
	}
	if !(cfg.Period > 0) {
		return SampledAnswer{}, 0, errors.New("baseline: Period must be positive")
	}
	if db.Dim() != 2 {
		return SampledAnswer{}, 0, fmt.Errorf("baseline: SR01 needs 2-D data, got %d-D", db.Dim())
	}
	var items []rtree.RectItem
	for o, tr := range db.Trajectories() {
		pos, err := tr.At(lo)
		if err != nil {
			continue
		}
		vel, _ := tr.VelocityAt(lo)
		if !vel.IsZero() {
			return SampledAnswer{}, 0, fmt.Errorf("baseline: SR01 requires stationary objects; %s moves", o)
		}
		items = append(items, rtree.RectItem{ID: uint64(o), R: rtree.Rect{Min: pos, Max: pos}})
	}
	tree, err := rtree.BulkRects(items, 2, cfg.Fanout)
	if err != nil {
		return SampledAnswer{}, 0, err
	}
	var sa SampledAnswer
	searches := 0
	radius := math.Inf(1)
	for t := lo; t <= hi+1e-12; t += cfg.Period {
		qpos, err := query.At(t)
		if err != nil {
			return SampledAnswer{}, 0, err
		}
		var got []rtree.RectItem
		if !math.IsInf(radius, 1) {
			// Expand the previous radius by the query's displacement
			// since the last search (their re-calculation rule).
			qvel, _ := query.VelocityAt(t)
			radius += qvel.Len() * cfg.Period
			got = tree.SearchRadius(qpos, radius)
			searches++
		}
		if len(got) < cfg.K {
			got = tree.NearestK(qpos, cfg.K)
			searches++
		}
		// Keep the K nearest of the candidates.
		sort.Slice(got, func(i, j int) bool {
			di, dj := got[i].R.Min.Dist2(qpos), got[j].R.Min.Dist2(qpos)
			if di != dj { //modlint:allow floatcmp -- comparator: strict weak ordering needs exact compares; ties break by OID
				return di < dj
			}
			return got[i].ID < got[j].ID
		})
		if len(got) > cfg.K {
			got = got[:cfg.K]
		}
		if len(got) > 0 {
			radius = got[len(got)-1].R.Min.Dist(qpos)
		}
		set := make([]mod.OID, len(got))
		for i, it := range got {
			set[i] = mod.OID(it.ID)
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		sa.Times = append(sa.Times, t)
		sa.Sets = append(sa.Sets, set)
	}
	return sa, searches, nil
}

// AllPairsKNN is the Proposition 1 recompute-from-scratch baseline
// (quantifier elimination by full cell decomposition); it delegates to
// the constraint-language evaluator.
func AllPairsKNN(db *mod.DB, query trajectory.Trajectory, k int, lo, hi float64) (cql.NNResult, error) {
	return cql.KNNNaive(db, query, k, lo, hi)
}

// AllPairsWithin is the threshold-query counterpart of AllPairsKNN:
// per-object exact quantifier elimination of "distance <= c", no sweep.
// It is the oracle of the differential test harness.
func AllPairsWithin(db *mod.DB, query trajectory.Trajectory, c float64, lo, hi float64) (cql.NNResult, error) {
	return cql.WithinNaive(db, query, c, lo, hi)
}

// Comparison quantifies how a sampled baseline diverges from the exact
// answer timeline.
type Comparison struct {
	// Probes and Wrong count probe instants and disagreements.
	Probes, Wrong int
	// Intervals is the number of maximal constant-answer intervals of
	// the truth; Missed counts those containing no baseline sample —
	// answers (like Figure 2's exchange at time C) the baseline never
	// reports.
	Intervals, Missed int
}

// WrongFraction returns the fraction of probe instants with an incorrect
// answer.
func (c Comparison) WrongFraction() float64 {
	if c.Probes == 0 {
		return 0
	}
	return float64(c.Wrong) / float64(c.Probes)
}

// MissedFraction returns the fraction of truth intervals never reported.
func (c Comparison) MissedFraction() float64 {
	if c.Intervals == 0 {
		return 0
	}
	return float64(c.Missed) / float64(c.Intervals)
}

// Compare probes the truth function on a regular grid (probes points)
// against the sampled answer, and counts truth intervals — delimited by
// changeTimes — that contain no sample instant.
func Compare(truth func(t float64) []mod.OID, sa SampledAnswer, changeTimes []float64, lo, hi float64, probes int) Comparison {
	var c Comparison
	for i := 0; i < probes; i++ {
		// Offset by half a step so probes avoid the exact sample and
		// change instants.
		t := lo + (hi-lo)*(float64(i)+0.5)/float64(probes)
		want := truth(t)
		got := sa.SetAt(t)
		c.Probes++
		if !sameSet(want, got) {
			c.Wrong++
		}
	}
	// Truth intervals between consecutive change times.
	bounds := append([]float64{lo}, changeTimes...)
	bounds = append(bounds, hi)
	sort.Float64s(bounds)
	samples := append([]float64(nil), sa.Times...)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		if !(b-a > 1e-9) {
			continue
		}
		c.Intervals++
		j := sort.SearchFloat64s(samples, a)
		if j >= len(samples) || samples[j] >= b {
			c.Missed++
		}
	}
	return c
}

func sameSet(a, b []mod.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
