package query

// Differential test of the threshold-bounded sweep: every past k-NN and
// within answer computed over the bounded pool must render — interval
// for interval, bit for bit — exactly as the answer of the full-order
// sweep, which a test-only wrapper forces by hiding the evaluator's
// Bound. MOD_SCENARIOS overrides the scenario count (CI runs 500
// under -race; each scenario is checked for three g-distances, three
// k, two windows and both query kinds).

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// fullOrder hides an evaluator's Bound, so RunPast sweeps every curve.
type fullOrder struct{ Evaluator }

// boundScenario is a random history: objects created over time (some
// co-located, some at rest, one exactly on the query point), then turns
// and terminations.
func boundScenario(seed int64) (*mod.DB, float64, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 24 + rng.Intn(100)
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	db := mod.NewDB(2, -1)
	tau := 0.0
	born := 10 * rng.Float64() // creations spread over [0, born]
	var prevPos, prevVel geom.Vec
	for i := 1; i <= n; i++ {
		pos, vel := vec(400), vec(12)
		switch rng.Intn(8) {
		case 0:
			vel = geom.Of(0, 0)
		case 1:
			if prevPos != nil {
				// Created where the previous object was created. If that one
				// is still there, this one stays too — identical curves, tied
				// for good. (A tie at insertion between curves of different
				// slope is ordered by float noise in any sweep, bounded or
				// not: core.cmpAt, ROADMAP's numeric-hostility item.)
				pos = prevPos.Clone()
				if prevVel.IsZero() {
					vel = geom.Of(0, 0)
				}
			}
		case 2:
			pos = geom.Of(0, 0) // on the query point
		}
		prevPos, prevVel = pos, vel
		tau += born / float64(n) * rng.Float64() * 2
		if err := db.Apply(mod.New(mod.OID(i), tau, vel, pos)); err != nil {
			return nil, 0, err
		}
	}
	dead := make(map[mod.OID]bool)
	for i, m := 0, n+rng.Intn(2*n); i < m; i++ {
		tau += 40 / float64(m) * rng.Float64() * 2
		o := mod.OID(1 + rng.Intn(n))
		if dead[o] {
			continue
		}
		if rng.Intn(12) == 0 {
			dead[o] = true
			if err := db.Apply(mod.Terminate(o, tau)); err != nil {
				return nil, 0, err
			}
			continue
		}
		if err := db.Apply(mod.ChDir(o, tau, vec(12))); err != nil {
			return nil, 0, err
		}
	}
	return db, tau, nil
}

// boundTally counts how the bounded side actually ran, so a silent
// fallback to the full order everywhere cannot pass for coverage.
type boundTally struct {
	runs, bounded, restarted, pool, all int
}

// compareBounded evaluates mk() both ways and returns a description of
// the first difference ("" when identical).
func compareBounded(db *mod.DB, f gdist.GDistance, lo, hi float64, mk func() Bounder, answer func(Evaluator) *AnswerSet, tally *boundTally) (string, error) {
	sc, err := ScanPast(db, f, lo, hi)
	if err != nil {
		return "", err
	}
	b := mk()
	run, err := RunScans([]*Scan{sc}, b)
	if err != nil {
		return "", err
	}
	full := mk()
	if _, err := RunPast(db, f, lo, hi, fullOrder{full}); err != nil {
		return "", err
	}
	tally.runs++
	tally.pool += run.Pool
	tally.all += len(sc.cands)
	if run.Pool < len(sc.cands) {
		tally.bounded++
	}
	if run.Attempts > 1 {
		tally.restarted++
	}
	if got, want := answer(b).String(), answer(full).String(); got != want {
		return fmt.Sprintf("bounded (pool %d of %d, %d attempts):\n  %s\nfull order:\n  %s",
			run.Pool, len(sc.cands), run.Attempts, got, want), nil
	}
	return "", nil
}

func TestDifferentialBoundedVsFullOrder(t *testing.T) {
	scenarios := 25
	if s := os.Getenv("MOD_SCENARIOS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("MOD_SCENARIOS=%q: %v", s, err)
		}
		scenarios = n
	}
	knnAnswer := func(ev Evaluator) *AnswerSet { return ev.(*KNN).Answer() }
	withinAnswer := func(ev Evaluator) *AnswerSet { return ev.(*Within).Answer() }
	var tally boundTally
	failures := 0
	for i := 0; i < scenarios; i++ {
		seed := 515000 + int64(i)
		db, end, err := boundScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		gamma := trajectory.Linear(0, geom.Of(8*(rng.Float64()-0.5), 8*(rng.Float64()-0.5)), geom.Of(0, 0))
		turned, err := gamma.ChDir(end/2, geom.Of(8*(rng.Float64()-0.5), 8*(rng.Float64()-0.5)))
		if err != nil {
			t.Fatal(err)
		}
		short := 12 + (end-14)*rng.Float64()
		r := 30 + 120*rng.Float64()
		dists := []struct {
			f gdist.GDistance
			c float64 // within threshold
		}{
			{gdist.PointSq{Point: geom.Of(0, 0)}, r * r},
			{gdist.EuclideanSq{Query: turned}, r * r},
			{gdist.Coordinate{Axis: 1}, -r + 2*r*rng.Float64()}, // values of either sign
		}
		windows := [][2]float64{{short, short + 0.5 + 1.5*rng.Float64()}, {0, end}}
		for _, d := range dists {
			for _, w := range windows {
				check := func(what string, mk func() Bounder, answer func(Evaluator) *AnswerSet) {
					diff, err := compareBounded(db, d.f, w[0], w[1], mk, answer, &tally)
					if err != nil {
						t.Fatalf("seed %d %s %s [%g,%g]: %v", seed, d.f.Name(), what, w[0], w[1], err)
					}
					if diff != "" {
						failures++
						t.Errorf("seed %d %s %s [%g,%g] diverges\n%s", seed, d.f.Name(), what, w[0], w[1], diff)
					}
				}
				for _, k := range []int{1, 4, 16} {
					check(fmt.Sprintf("knn k=%d", k), func() Bounder { return NewKNN(k) }, knnAnswer)
				}
				check(fmt.Sprintf("within c=%g", d.c), func() Bounder { return NewWithin(d.c) }, withinAnswer)
				if failures >= 3 {
					t.Fatal("stopping after 3 divergences")
				}
			}
		}
	}
	t.Logf("%d scenarios, %d comparisons: zero divergences; %d swept a proper subset (mean pool %.1f of %.1f), %d restarted",
		scenarios, tally.runs, tally.bounded, float64(tally.pool)/float64(tally.runs), float64(tally.all)/float64(tally.runs), tally.restarted)
	if tally.bounded == 0 || tally.restarted == 0 {
		t.Errorf("harness never exercised the bounded sweep: %+v", tally)
	}
}

// TestBoundedRestartsWhenNearestFlee: the k objects nearest at the
// window start all race away while a ring of initially farther objects
// closes in, so the first guess — taken from the start — is refuted by
// the sentinel and the evaluation restarts; the answer is the
// full-order one regardless.
func TestBoundedRestartsWhenNearestFlee(t *testing.T) {
	const k = 2
	db := mod.NewDB(2, -1)
	oid := mod.OID(0)
	add := func(vel, pos geom.Vec) {
		oid++
		if err := db.Apply(mod.New(oid, float64(oid)*1e-3, vel, pos)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*k; i++ { // the pool of the first guess: near, fleeing
		a := 2 * math.Pi * float64(i) / (4 * k)
		add(geom.Of(50*math.Cos(a), 50*math.Sin(a)), geom.Of(math.Cos(a), math.Sin(a)).Scale(1+float64(i)))
	}
	for i := 0; i < 40; i++ { // far, at rest: the answer once the near ones are gone
		a := 2 * math.Pi * float64(i) / 40
		add(geom.Of(0, 0), geom.Of(math.Cos(a), math.Sin(a)).Scale(100+float64(i)))
	}
	f := gdist.PointSq{Point: geom.Of(0, 0)}
	sc, err := ScanPast(db, f, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	knn := NewKNN(k)
	run, err := RunScans([]*Scan{sc}, knn)
	if err != nil {
		t.Fatal(err)
	}
	if run.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (the first guess cannot hold)", run.Attempts)
	}
	full := NewKNN(k)
	if _, err := RunPast(db, f, 1, 20, fullOrder{full}); err != nil {
		t.Fatal(err)
	}
	if got, want := knn.Answer().String(), full.Answer().String(); got != want {
		t.Errorf("after %d attempts (pool %d):\n  %s\nfull order:\n  %s", run.Attempts, run.Pool, got, want)
	}
}

// TestBoundedThresholdEdges pins the corners of the threshold rule.
func TestBoundedThresholdEdges(t *testing.T) {
	f := gdist.PointSq{Point: geom.Of(0, 0)}
	build := func(us ...mod.Update) *mod.DB {
		db := mod.NewDB(2, -1)
		if err := db.ApplyAll(us...); err != nil {
			t.Fatal(err)
		}
		return db
	}
	same := func(t *testing.T, db *mod.DB, f gdist.GDistance, lo, hi float64, mk func() Bounder, answer func(Evaluator) *AnswerSet) Run {
		t.Helper()
		sc, err := ScanPast(db, f, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		b := mk()
		run, err := RunScans([]*Scan{sc}, b)
		if err != nil {
			t.Fatal(err)
		}
		full := mk()
		if _, err := RunPast(db, f, lo, hi, fullOrder{full}); err != nil {
			t.Fatal(err)
		}
		if got, want := answer(b).String(), answer(full).String(); got != want {
			t.Errorf("bounded %s\nfull    %s", got, want)
		}
		return run
	}
	knnOf := func(k int) (func() Bounder, func(Evaluator) *AnswerSet) {
		return func() Bounder { return NewKNN(k) }, func(ev Evaluator) *AnswerSet { return ev.(*KNN).Answer() }
	}

	t.Run("fewer than k objects in the window", func(t *testing.T) {
		db := build(mod.New(1, 0, geom.Of(1, 0), geom.Of(5, 0)), mod.New(2, 0.1, geom.Of(0, 1), geom.Of(0, 9)))
		mk, ans := knnOf(4)
		if run := same(t, db, f, 1, 5, mk, ans); run.Attempts != 1 || run.Pool != 2 {
			t.Errorf("run = %+v, want one full-order attempt over both objects", run)
		}
	})

	t.Run("k-th value exactly zero", func(t *testing.T) {
		// Twenty objects at rest on the query point: every starting value
		// is 0, so every rank gives the threshold 0 and the sentinel ties
		// with the whole answer. One far object makes the pool proper.
		var us []mod.Update
		for i := 1; i <= 20; i++ {
			us = append(us, mod.New(mod.OID(i), float64(i)*1e-3, geom.Of(0, 0), geom.Of(0, 0)))
		}
		us = append(us, mod.New(99, 0.5, geom.Of(0, 0), geom.Of(300, 0)))
		mk, ans := knnOf(3)
		if run := same(t, build(us...), f, 1, 5, mk, ans); run.Pool != 20 {
			t.Errorf("run = %+v, want the 20 co-located objects swept and the far one left out", run)
		}
	})

	t.Run("negative values", func(t *testing.T) {
		var us []mod.Update
		for i := 1; i <= 40; i++ {
			us = append(us, mod.New(mod.OID(i), float64(i)*1e-3, geom.Of(0, float64(i%5)-2), geom.Of(0, -float64(10*i))))
		}
		mk, ans := knnOf(2)
		if run := same(t, build(us...), gdist.Coordinate{Axis: 1}, 1, 3, mk, ans); run.Pool >= 40 {
			t.Errorf("run = %+v, want a proper subset of the 40 objects", run)
		}
	})

	t.Run("created and terminated inside the window", func(t *testing.T) {
		var us []mod.Update
		for i := 1; i <= 30; i++ {
			us = append(us, mod.New(mod.OID(i), float64(i)*1e-3, geom.Of(0, 0), geom.Of(float64(20+3*i), 0)))
		}
		// Born inside the window next to the query point, gone before it ends.
		us = append(us, mod.New(77, 2, geom.Of(0, 0), geom.Of(1, 0)), mod.Terminate(77, 3))
		// The nearest of the old ones is terminated inside the window too.
		us = append(us, mod.Terminate(1, 3.5))
		mk, ans := knnOf(2)
		run := same(t, build(us...), f, 1, 5, mk, ans)
		if run.Pool >= 31 {
			t.Errorf("run = %+v, want a proper subset", run)
		}
	})

	t.Run("tangency at the boundary", func(t *testing.T) {
		// Object 3 passes the query point at distance 10 — exactly the
		// within radius, and exactly where object 2 rests: one point
		// membership from a ChangeEqual in each query kind.
		db := build(
			mod.New(1, 0, geom.Of(0, 0), geom.Of(3, 0)),
			mod.New(2, 0.1, geom.Of(0, 0), geom.Of(0, 10)),
			mod.New(3, 0.2, geom.Of(1, 0), geom.Of(-5, 10)),
			mod.New(4, 0.3, geom.Of(0, 0), geom.Of(40, 0)),
			mod.New(5, 0.4, geom.Of(0, 0), geom.Of(60, 0)),
			mod.New(6, 0.5, geom.Of(0, 0), geom.Of(80, 0)),
			mod.New(7, 0.6, geom.Of(0, 0), geom.Of(90, 0)),
			mod.New(8, 0.7, geom.Of(0, 0), geom.Of(95, 0)),
			mod.New(9, 0.8, geom.Of(0, 0), geom.Of(99, 0)),
		)
		mk, ans := knnOf(2)
		same(t, db, f, 1, 9, mk, ans)
		same(t, db, f, 1, 9, func() Bounder { return NewWithin(100) },
			func(ev Evaluator) *AnswerSet { return ev.(*Within).Answer() })
	})
}

// TestThresholdLadder pins the rank ladder rung by rung.
func TestThresholdLadder(t *testing.T) {
	inf, none := math.Inf(1), math.Inf(-1)
	seq := func(n int) []float64 { // 1, 2, ..., n
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	tied := append(append(make([]float64, 0, 20), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 5, 6, 7, 8)
	cases := []struct {
		name   string
		b      Bound
		firsts []float64
		want   []float64 // rung 0, 1, ...
	}{
		{"by value alone: flat", Bound{Below: 9}, seq(100), []float64{9, 9, 9}},
		{"no bound at all", Bound{Below: inf}, nil, []float64{inf, inf}},
		{"k=1, empty", Bound{Below: none, First: 1}, nil, []float64{inf, inf}},
		{"k=1, 3 values: below the first rung", Bound{Below: none, First: 1}, seq(3), []float64{inf, inf}},
		{"k=1, 4 values: at the first rung", Bound{Below: none, First: 1}, seq(4), []float64{4, inf, inf}},
		{"k=1, 5 values: above the first rung", Bound{Below: none, First: 1}, seq(5), []float64{4, inf}},
		{"k=1, 15 values: below the second", Bound{Below: none, First: 1}, seq(15), []float64{4, inf}},
		{"k=1, 16 values: at the second", Bound{Below: none, First: 1}, seq(16), []float64{4, 16, inf}},
		{"k=1, 17 values: above the second", Bound{Below: none, First: 1}, seq(17), []float64{4, 16, inf}},
		{"k=1, 64 values: at the third", Bound{Below: none, First: 1}, seq(64), []float64{4, 16, 64, inf, inf}},
		{"k=4, 15 values", Bound{Below: none, First: 4}, seq(15), []float64{inf}},
		{"k=4, 16 values", Bound{Below: none, First: 4}, seq(16), []float64{16, inf}},
		{"k=4, 300 values", Bound{Below: none, First: 4}, seq(300), []float64{16, 64, 256, inf}},
		{"ties across a rung are skipped", Bound{Below: none, First: 1}, tied, []float64{0, inf}},
		{"ties across two rungs", Bound{Below: none, First: 1}, append(make([]float64, 63), 3), []float64{0, 3, inf}},
		{"Below above the ranked value", Bound{Below: 10, First: 1}, seq(64), []float64{10, 16, 64, inf}},
		{"Below above every value", Bound{Below: 100, First: 1}, seq(64), []float64{100, inf}},
		{"negative values", Bound{Below: none, First: 1}, []float64{-9, -7, -5, -3, -1}, []float64{-3, inf}},
		{"k = 2^61: 4k wraps to 0", Bound{Below: none, First: 1 << 61}, seq(50), []float64{inf, inf}},
		{"k = 2^62: 4k wraps negative", Bound{Below: none, First: 1 << 62}, seq(50), []float64{inf, inf}},
		{"k = MaxInt", Bound{Below: none, First: math.MaxInt}, seq(50), []float64{inf, inf}},
		{"k just under the wrap", Bound{Below: 3, First: 1<<61 - 1}, seq(50), []float64{inf}},
	}
	for _, c := range cases {
		for rung, want := range c.want {
			if got := Threshold(c.b, c.firsts, rung); got != want {
				t.Errorf("%s: rung %d = %v, want %v", c.name, rung, got, want)
			}
		}
	}
}

// TestRunScansHugeK: a k whose 4-fold overflows int used to wrap the
// ladder's rank to zero and spin on the same refuted pool for ever. Any
// k at or above the population reads the whole order, as k = 10^9 does.
func TestRunScansHugeK(t *testing.T) {
	db := mod.NewDB(2, -1)
	for i := 1; i <= 50; i++ {
		a := float64(i)
		if err := db.Apply(mod.New(mod.OID(i), a*1e-3, geom.Of(math.Cos(a), math.Sin(a)), geom.Of(3*a, -a))); err != nil {
			t.Fatal(err)
		}
	}
	f := gdist.PointSq{Point: geom.Of(0, 0)}
	answer := func(k int) string {
		t.Helper()
		sc, err := ScanPast(db, f, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			run Run
			ans *AnswerSet
			err error
		}
		done := make(chan result, 1)
		go func() {
			knn := NewKNN(k)
			run, err := RunScans([]*Scan{sc}, knn)
			done <- result{run, knn.Answer(), err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("k = %d: %v", k, r.err)
			}
			if r.run.Attempts != 1 || r.run.Pool != 50 || len(r.ans.Objects()) != 50 {
				t.Errorf("k = %d: run = %+v answering %d objects, want one attempt over all 50", k, r.run, len(r.ans.Objects()))
			}
			return r.ans.String()
		case <-time.After(2 * time.Second):
			t.Fatalf("k = %d: RunScans did not finish in 2 s", k)
			return ""
		}
	}
	want := answer(1_000_000_000)
	for _, k := range []int{1 << 61, 1 << 62, math.MaxInt} {
		if got := answer(k); got != want {
			t.Errorf("k = %d:\n  %s\nk = 10^9:\n  %s", k, got, want)
		}
	}
}

// TestKNNRefreshSteadyStateAllocatesNothing: refresh runs on every
// support change of every sweep, and nearly all of them leave the first
// k as they were.
func TestKNNRefreshSteadyStateAllocatesNothing(t *testing.T) {
	db := mod.NewDB(2, -1)
	for i := 1; i <= 12; i++ {
		if err := db.Apply(mod.New(mod.OID(i), float64(i)*1e-3, geom.Of(0, 0), geom.Of(float64(i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngine(EngineConfig{F: gdist.PointSq{Point: geom.Of(0, 0)}, Lo: 1, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	knn := NewKNN(4)
	if err := e.AddEvaluator(knn); err != nil {
		t.Fatal(err)
	}
	if err := e.Seed(db.Trajectories()); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { knn.refresh(1) }); allocs != 0 {
		t.Errorf("refresh with an unchanged first-k set: %v allocs, want 0", allocs)
	}
}

func TestReaches(t *testing.T) {
	f := gdist.PointSq{Point: geom.Of(0, 0)}
	reaches := func(f gdist.GDistance, tr trajectory.Trajectory, thr, from, hi float64) bool {
		t.Helper()
		ok, err := Reaches(f, tr, thr, from, hi)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	through := trajectory.Linear(0, geom.Of(1, 0), geom.Of(-10, 1))
	if !reaches(f, through, 4, 0, 100) {
		t.Error("passing trajectory not detected")
	}
	if reaches(f, through, 4, 0, 5) { // window ends before closest approach at t=10
		t.Error("window clipping ignored")
	}
	miss := trajectory.Linear(0, geom.Of(1, 0), geom.Of(-10, 5))
	if reaches(f, miss, 4, 0, 100) {
		t.Error("missing trajectory detected as reaching")
	}
	if !reaches(f, miss, math.Inf(1), 0, 100) {
		t.Error("every curve reaches +Inf")
	}
	term, err := through.Terminate(5)
	if err != nil {
		t.Fatal(err)
	}
	if reaches(f, term, 4, 0, 100) {
		t.Error("terminated before it arrives, still reaching")
	}
	if ok, err := Reaches(f, term, 4, 6, 100); ok || err == nil {
		t.Errorf("window past the trajectory's end: %v, %v; want false and the window error", ok, err)
	}
	// Closest approach lands exactly on the threshold: the margin keeps it in.
	graze := trajectory.Linear(0, geom.Of(1, 0), geom.Of(-10, 2))
	if !reaches(f, graze, 4, 0, 100) {
		t.Error("grazing trajectory excluded")
	}
	// No closed form: decided on the built curve, negative values included.
	alt := gdist.Coordinate{Axis: 1}
	sinking := trajectory.Linear(0, geom.Of(0, -1), geom.Of(0, 3))
	if !reaches(alt, sinking, -5, 0, 10) || reaches(alt, sinking, -5, 0, 7) {
		t.Error("built-curve reach test wrong on a sinking coordinate")
	}
}

func TestInflate(t *testing.T) {
	for _, thr := range []float64{-1e6, -1, 0, 1e-9, 1, 22500, 1e12} {
		if got := Inflate(thr); !(got > thr) || got-thr > 2*boundMargin*(math.Abs(thr)+1) {
			t.Errorf("Inflate(%g) = %g", thr, got)
		}
	}
	if !math.IsInf(Inflate(math.Inf(1)), 1) || !math.IsInf(Inflate(math.Inf(-1)), -1) {
		t.Error("Inflate must keep infinities")
	}
}

// TestGuardLatches: the guard fires when the sentinel gets in among the
// first need entries, stays fired after the order heals, and never
// fires without a finite threshold.
func TestGuardLatches(t *testing.T) {
	db := mod.NewDB(2, -1)
	// Object 1 leaves the ball of radius 10 at t=5 and comes back at
	// t=15; object 2 rests inside it, object 3 far outside.
	if err := db.ApplyAll(
		mod.New(1, 0, geom.Of(1, 0), geom.Of(5, 0)),
		mod.New(2, 0.1, geom.Of(0, 0), geom.Of(0, 3)),
		mod.New(3, 0.2, geom.Of(0, 0), geom.Of(0, 50)),
		mod.ChDir(1, 10, geom.Of(-1, 0)),
	); err != nil {
		t.Fatal(err)
	}
	run := func(thr float64, need int, until float64) *Guard {
		e, err := NewEngine(EngineConfig{F: gdist.PointSq{Point: geom.Of(0, 0)}, Lo: 1, Hi: 30})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Seed(db.Trajectories()); err != nil {
			t.Fatal(err)
		}
		g := NewGuard(thr, need)
		if err := e.AddEvaluator(g); err != nil {
			t.Fatal(err)
		}
		if err := e.RunTo(until); err != nil {
			t.Fatal(err)
		}
		return g
	}
	if run(100, 2, 4).Violated() {
		t.Error("violated while both objects are inside the threshold")
	}
	if !run(100, 2, 6).Violated() {
		t.Error("object 1 crossed the sentinel at t=5: not violated")
	}
	if !run(100, 2, 20).Violated() {
		t.Error("violation must latch after object 1 comes back at t=15")
	}
	if run(100, 1, 20).Violated() {
		t.Error("need=1: object 2 never leaves, must hold")
	}
	if !run(100, 3, 2).Violated() {
		t.Error("need=3 with only two objects under the sentinel: violated from the start")
	}
	if run(math.Inf(1), 3, 20).Violated() || run(100, 0, 20).Violated() {
		t.Error("nothing to watch, yet violated")
	}
}

func TestScanAndRunErrors(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.Apply(mod.New(1, 0, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	f := gdist.PointSq{Point: geom.Of(0, 0)}
	if _, err := ScanPast(db, nil, 0, 1); err == nil {
		t.Error("nil g-distance accepted")
	}
	if _, err := ScanPast(db, f, 5, 1); !errors.Is(err, ErrBadWindow) {
		t.Errorf("inverted window: %v", err)
	}
	if _, err := RunScans(nil, NewKNN(1)); err == nil {
		t.Error("no scans accepted")
	}
	// A query trajectory that ends before the window: no curve exists.
	gone, err := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0)).Terminate(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPast(db, gdist.EuclideanSq{Query: gone}, 2, 5, NewKNN(1)); !errors.Is(err, gdist.ErrWindow) {
		t.Errorf("curve outside the query's lifetime: %v", err)
	}
	// Evaluator errors surface from the sweep, bounded or not.
	if _, err := RunPast(db, f, 0, 5, NewKNN(0)); err == nil {
		t.Error("k=0 accepted")
	}
	// The database refuses an OID the sweep cannot address and sweeps
	// the largest one it accepts; a source that is not a database is
	// still checked by the sweep.
	line := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	big := mod.NewDB(2, -1)
	if err := big.Load(mod.MaxOID+1, line); !errors.Is(err, mod.ErrBadOperation) {
		t.Errorf("Load of an OID above mod.MaxOID: %v, want ErrBadOperation", err)
	}
	if err := big.Apply(mod.New(mod.MaxOID+1, 0, geom.Of(1, 0), geom.Of(0, 0))); !errors.Is(err, mod.ErrBadOperation) {
		t.Errorf("Apply of an OID above mod.MaxOID: %v, want ErrBadOperation", err)
	}
	must(t, big.Load(mod.MaxOID, line))
	knn := NewKNN(1)
	if _, err := RunPast(big, f, 0, 5, knn); err != nil || len(knn.Answer().Intervals(mod.MaxOID)) != 1 {
		t.Errorf("k-NN over mod.MaxOID: %v, answer %v", err, knn.Answer().Objects())
	}
	if _, err := RunPast(trajMap{mod.MaxOID + 1: line}, f, 0, 5, NewKNN(1)); !errors.Is(err, ErrBadOID) {
		t.Errorf("48-bit overflow: %v", err)
	}
	// No evaluators: the sweep still runs, over everything.
	if st, err := RunPast(db, f, 0, 5); err != nil || st.Inserts != 1 {
		t.Errorf("bare sweep: %+v, %v", st, err)
	}
}

// trajMap is a trajectory source that is not a database.
type trajMap map[mod.OID]trajectory.Trajectory

func (m trajMap) Trajectories() map[mod.OID]trajectory.Trajectory { return m }
