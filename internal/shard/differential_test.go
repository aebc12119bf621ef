package shard

// Property-based differential testing: seeded random update streams and
// past within/k-NN queries, evaluated by the sweep engine (unsharded
// and fan-out) AND by the naive constraint-database oracle
// (internal/baseline → internal/cql quantifier elimination), then
// compared at probe instants — the midpoints between all answer-change
// times either side reports. The two evaluation strategies share no
// code beyond the trajectory algebra, so agreement over thousands of
// random scenarios is strong evidence both implement Section 4's
// semantics. Every sweep is also held to Lemma 9's space bound (one
// queued event per adjacent pair of curves). A disagreement is shrunk
// (by truncating the update tail) to a minimal failing stream and
// printed with its seed for replay.
//
// MOD_SCENARIOS overrides the scenario count (CI runs 1000; each
// scenario is checked at P=1 and P=4, so CI covers 2000 engine-vs-
// oracle sweeps per query kind).

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/trajectory"
)

const (
	diffLo = 0.0
	diffHi = 35.0
)

// diffScenario is one random workload + query, fully determined by its
// seed.
type diffScenario struct {
	seed  int64
	us    []mod.Update
	gamma trajectory.Trajectory
	k     int
	c     float64
}

// makeDiffScenario derives a scenario from a seed: 6-20 objects created
// over time, 10-50 follow-up direction changes and terminations, a
// random linear query trajectory, a random k and threshold.
func makeDiffScenario(seed int64) diffScenario {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(15)
	m := 10 + rng.Intn(41)
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	var us []mod.Update
	tau := 0.5
	dead := make(map[mod.OID]bool)
	for i := 0; i < n; i++ {
		us = append(us, mod.New(mod.OID(i+1), tau, vec(6), vec(120)))
		tau += 0.1 + 0.5*rng.Float64()
	}
	for i := 0; i < m; i++ {
		o := mod.OID(rng.Intn(n) + 1)
		if dead[o] {
			continue
		}
		if rng.Float64() < 0.1 && len(dead) < n-2 {
			dead[o] = true
			us = append(us, mod.Terminate(o, tau))
		} else {
			us = append(us, mod.ChDir(o, tau, vec(6)))
		}
		tau += 0.1 + 0.5*rng.Float64()
	}
	r := 10 + 50*rng.Float64()
	return diffScenario{
		seed:  seed,
		us:    us,
		gamma: trajectory.Linear(0, vec(4), vec(60)),
		k:     1 + rng.Intn(4),
		c:     r * r,
	}
}

// naiveMembers returns the oracle's snapshot answer at time t.
func naiveMembers(naive cql.NNResult, t float64) []mod.OID {
	var out []mod.OID
	for o, ss := range naive {
		if ss.Contains(t) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// diffProbes builds the probe instants: midpoints between consecutive
// answer-change times reported by either side, skipping gaps too narrow
// to probe safely (the two evaluators compute crossing roots with
// different roundoff, so instants within ~1e-5 of a boundary are
// ambiguous by construction, not divergent).
func diffProbes(ans *query.AnswerSet, naive cql.NNResult) []float64 {
	pts := []float64{diffLo, diffHi}
	for _, o := range ans.Objects() {
		for _, iv := range ans.Intervals(o) {
			pts = append(pts, iv.Lo, iv.Hi)
		}
	}
	for _, ss := range naive {
		for _, sp := range ss.Spans() {
			pts = append(pts, sp.Lo, sp.Hi)
		}
	}
	sort.Float64s(pts)
	var probes []float64
	for i := 0; i+1 < len(pts); i++ {
		if pts[i] >= diffLo && pts[i+1] <= diffHi && pts[i+1]-pts[i] > 1e-5 {
			probes = append(probes, 0.5*(pts[i]+pts[i+1]))
		}
	}
	return probes
}

// diffDivergence probes a sweep answer against the oracle and describes
// the first disagreement ("" if none).
func diffDivergence(kind string, p int, ans *query.AnswerSet, naive cql.NNResult) string {
	for _, t := range diffProbes(ans, naive) {
		got := ans.At(t)
		want := naiveMembers(naive, t)
		if len(got) != len(want) {
			return fmt.Sprintf("%s P=%d at t=%g: sweep=%v oracle=%v", kind, p, t, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Sprintf("%s P=%d at t=%g: sweep=%v oracle=%v", kind, p, t, got, want)
			}
		}
	}
	return ""
}

// queueDivergence checks Lemma 9's space bound on a sweep: the event
// queue holds one event per adjacent pair of curves, so never more than
// the curves less one. curves bounds what a sweep can hold: every
// object of the database plus the query's constant curves.
func queueDivergence(kind string, p int, st core.Stats, curves int) string {
	if st.MaxQueueLen > max(curves-1, 0) {
		return fmt.Sprintf("%s P=%d: event queue reached %d with at most %d curves (Lemma 9)", kind, p, st.MaxQueueLen, curves)
	}
	return ""
}

// runDiffScenario evaluates one scenario through both strategies at the
// given partition counts. It returns a divergence description ("" when
// the strategies agree and every sweep kept Lemma 9's queue bound) or a
// hard evaluation error.
func runDiffScenario(sc diffScenario, ps []int) (string, error) {
	db := mod.NewDB(2, -1)
	if err := db.ApplyAll(sc.us...); err != nil {
		return "", fmt.Errorf("apply: %w", err)
	}
	naiveKNN, err := baseline.AllPairsKNN(db, sc.gamma, sc.k, diffLo, diffHi)
	if err != nil {
		return "", fmt.Errorf("oracle knn: %w", err)
	}
	naiveWithin, err := baseline.AllPairsWithin(db, sc.gamma, sc.c, diffLo, diffHi)
	if err != nil {
		return "", fmt.Errorf("oracle within: %w", err)
	}
	f := gdist.EuclideanSq{Query: sc.gamma}
	for _, p := range ps {
		eng, err := FromDB(db.Snapshot(), Config{Shards: p})
		if err != nil {
			return "", err
		}
		gotKNN, st, _, err := eng.KNN(f, sc.k, diffLo, diffHi)
		if err != nil {
			return "", fmt.Errorf("sweep knn P=%d: %w", p, err)
		}
		if d := diffDivergence("knn", p, gotKNN, naiveKNN); d != "" {
			return d, nil
		}
		if d := queueDivergence("knn", p, st, db.Len()); d != "" {
			return d, nil
		}
		gotW, st, _, err := eng.Within(f, sc.c, diffLo, diffHi)
		if err != nil {
			return "", fmt.Errorf("sweep within P=%d: %w", p, err)
		}
		if d := diffDivergence("within", p, gotW, naiveWithin); d != "" {
			return d, nil
		}
		if d := queueDivergence("within", p, st, db.Len()+1); d != "" {
			return d, nil
		}
	}
	return "", nil
}

// scenarioCount is the number of scenarios a differential runs: def, or
// MOD_SCENARIOS when it is set (CI sets it per differential).
func scenarioCount(t *testing.T, def int) int {
	t.Helper()
	s := os.Getenv("MOD_SCENARIOS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("MOD_SCENARIOS=%q: %v", s, err)
	}
	return n
}

func TestDifferentialSweepVsOracle(t *testing.T) {
	scenarios := scenarioCount(t, 60)
	ps := []int{1, 4}
	const baseSeed = 94000
	failures := 0
	for i := 0; i < scenarios; i++ {
		seed := baseSeed + int64(i)
		sc := makeDiffScenario(seed)
		d, err := runDiffScenario(sc, ps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d == "" {
			continue
		}
		// Shrink: drop updates off the tail while the divergence
		// persists, so the printed repro is minimal.
		min, minD := sc, d
		for len(min.us) > 1 {
			cand := min
			cand.us = min.us[:len(min.us)-1]
			cd, cerr := runDiffScenario(cand, ps)
			if cerr != nil || cd == "" {
				break
			}
			min, minD = cand, cd
		}
		t.Errorf("seed %d diverges: %s\nshrunk to %d updates (of %d): replay with makeDiffScenario(%d), us[:%d]\nquery: k=%d c=%g window=[%g,%g]",
			seed, minD, len(min.us), len(sc.us), seed, len(min.us), sc.k, sc.c, diffLo, diffHi)
		if failures++; failures >= 3 {
			t.Fatal("stopping after 3 divergent seeds")
		}
	}
	if failures == 0 {
		t.Logf("%d scenarios x P in {1,4} x {knn, within}: zero divergences, Lemma 9's queue bound held", scenarios)
	}
}
