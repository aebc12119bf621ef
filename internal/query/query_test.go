package query

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// lineDB builds a 1-D MOD with objects at given starting offsets and
// velocities, all created at time 0 (tau0 = -1 so creation at 0 is legal).
func lineDB(t *testing.T, offs, vels []float64) *mod.DB {
	t.Helper()
	db := mod.NewDB(1, -1)
	for i := range offs {
		tr := trajectory.Linear(0, geom.Of(vels[i]), geom.Of(offs[i]))
		if err := db.Load(mod.OID(i+1), tr); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// originSq is squared distance to the stationary origin.
func originSq() gdist.GDistance {
	return gdist.PointSq{Point: geom.Of(0)}
}

func TestKNNSimpleCrossover(t *testing.T) {
	// Object 1 sits at distance 1; object 2 starts at 10 moving toward
	// the origin at speed 1: d2 = (10-t)^2 < d1 = 1 when t > 9.
	db := lineDB(t, []float64{1, 10}, []float64{0, -1})
	knn := NewKNN(1)
	_, err := RunPast(db, originSq(), 0, 9.5, knn)
	if err != nil {
		t.Fatal(err)
	}
	ans := knn.Answer()
	iv1 := ans.Intervals(1)
	if len(iv1) != 1 || iv1[0].Lo != 0 || math.Abs(iv1[0].Hi-9) > 1e-7 {
		t.Errorf("o1 intervals %v, want [0,9]", iv1)
	}
	iv2 := ans.Intervals(2)
	if len(iv2) != 1 || math.Abs(iv2[0].Lo-9) > 1e-7 || math.Abs(iv2[0].Hi-9.5) > 1e-9 {
		t.Errorf("o2 intervals %v, want [9,9.5]", iv2)
	}
	// Answer modes.
	if got := ans.At(5); len(got) != 1 || got[0] != 1 {
		t.Errorf("At(5) = %v", got)
	}
	if got := ans.Existential(); len(got) != 2 {
		t.Errorf("Existential = %v", got)
	}
	if got := ans.Universal(0, 9.5); len(got) != 0 {
		t.Errorf("Universal = %v, want none", got)
	}
	if got := ans.Universal(0, 8); len(got) != 1 || got[0] != 1 {
		t.Errorf("Universal(0,8) = %v, want [o1]", got)
	}
}

func TestKNNWithObjectChurn(t *testing.T) {
	// Creations and terminations inside the window. Each row plays the
	// same scene shifted in time; the second one's window ends at 0,
	// which is a time like any other.
	for _, shift := range []float64{0, -10} {
		at := func(t float64) float64 { return t + shift }
		db := mod.NewDB(1, at(-1))
		must(t, db.Apply(mod.New(1, at(0), geom.Of(0), geom.Of(5))))
		must(t, db.Apply(mod.New(2, at(3), geom.Of(0), geom.Of(2)))) // closer, appears at 3
		must(t, db.Apply(mod.Terminate(2, at(6))))                   // disappears at 6
		knn := NewKNN(1)
		_, err := RunPast(db, originSq(), at(0), at(10), knn)
		if err != nil {
			t.Fatal(err)
		}
		ans := knn.Answer()
		iv1 := ans.Intervals(1)
		// o1 is 1-NN on [0,3] and [6,10].
		if len(iv1) != 2 {
			t.Fatalf("shift %g: o1 intervals %v", shift, iv1)
		}
		if math.Abs(iv1[0].Lo-at(0)) > 1e-9 || math.Abs(iv1[0].Hi-at(3)) > 1e-9 ||
			math.Abs(iv1[1].Lo-at(6)) > 1e-9 || math.Abs(iv1[1].Hi-at(10)) > 1e-9 {
			t.Errorf("shift %g: o1 intervals %v, want [0,3] [6,10] shifted", shift, iv1)
		}
		iv2 := ans.Intervals(2)
		if len(iv2) != 1 || math.Abs(iv2[0].Lo-at(3)) > 1e-9 || math.Abs(iv2[0].Hi-at(6)) > 1e-9 {
			t.Errorf("shift %g: o2 intervals %v, want [3,6] shifted", shift, iv2)
		}
	}
}

func TestWithinThreshold(t *testing.T) {
	// Object oscillates... linear in and out: d = (t-10)^2 <= 25 for
	// t in [5, 15].
	db := lineDB(t, []float64{-10}, []float64{1})
	w := NewWithin(25)
	_, err := RunPast(db, originSq(), 0, 20, w)
	if err != nil {
		t.Fatal(err)
	}
	iv := w.Answer().Intervals(1)
	if len(iv) != 1 || math.Abs(iv[0].Lo-5) > 1e-7 || math.Abs(iv[0].Hi-15) > 1e-7 {
		t.Errorf("intervals %v, want [5,15]", iv)
	}
}

func TestWithinTangency(t *testing.T) {
	// Closest approach exactly at the threshold: point membership.
	// d(t) = (t-5)^2 + 9 touches 9 at t=5.
	db := mod.NewDB(2, -1)
	must(t, db.Apply(mod.New(1, 0, geom.Of(1, 0), geom.Of(-5, 3))))
	w := NewWithin(9)
	_, err := RunPast(db, gdist.PointSq{Point: geom.Of(0, 0)}, 0, 10, w)
	if err != nil {
		t.Fatal(err)
	}
	iv := w.Answer().Intervals(1)
	if len(iv) != 1 || math.Abs(iv[0].Lo-5) > 1e-6 || math.Abs(iv[0].Hi-5) > 1e-6 {
		t.Errorf("intervals %v, want point [5,5]", iv)
	}
}

func TestFormulaOneNNMatchesKNN(t *testing.T) {
	// Example 10: phi(y,t) = forall z (d(y,t) <= d(z,t)).
	db := lineDB(t, []float64{1, 10, -4}, []float64{0, -1, 0.5})
	phi := ForAll{Var: "z", Body: Atom{L: F{Var: "y"}, Op: LE, R: F{Var: "z"}}}
	form := NewFormula("y", phi)
	knn := NewKNN(1)
	_, err := RunPast(db, originSq(), 0, 12, form, knn)
	if err != nil {
		t.Fatal(err)
	}
	if err := form.Err(); err != nil {
		t.Fatal(err)
	}
	// Compare membership at many sample instants.
	for _, tt := range []float64{0.5, 3.3, 6.1, 8.7, 9.4, 11.9} {
		a := form.Answer().At(tt)
		b := knn.Answer().At(tt)
		if !sameOIDs(a, b) {
			t.Errorf("t=%g: formula %v vs knn %v", tt, a, b)
		}
	}
}

func TestFormulaWithinConstant(t *testing.T) {
	db := lineDB(t, []float64{-10}, []float64{1})
	phi := Atom{L: F{Var: "y"}, Op: LE, R: C{Value: 25}}
	form := NewFormula("y", phi)
	w := NewWithin(25)
	_, err := RunPast(db, originSq(), 0, 20, form, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1, 5.5, 10, 14.5, 19} {
		if !sameOIDs(form.Answer().At(tt), w.Answer().At(tt)) {
			t.Errorf("t=%g: formula %v vs within %v", tt, form.Answer().At(tt), w.Answer().At(tt))
		}
	}
}

func TestFormulaConnectives(t *testing.T) {
	// Objects between distance^2 25 and 100: AND of two atoms; also
	// exercise Or/Not/Implies/Exists and NE/GT/GE/LT/EQ operators.
	db := lineDB(t, []float64{-20}, []float64{1})
	band := And{
		X: Atom{L: F{Var: "y"}, Op: LE, R: C{Value: 100}},
		Y: Atom{L: F{Var: "y"}, Op: GE, R: C{Value: 25}},
	}
	form := NewFormula("y", band)
	if _, err := RunPast(db, originSq(), 0, 40, form); err != nil {
		t.Fatal(err)
	}
	// d = (t-20)^2: in [25,100] <=> |t-20| in [5,10] <=> t in [10,15] u [25,30].
	iv := form.Answer().Intervals(1)
	if len(iv) != 2 {
		t.Fatalf("intervals %v, want two bands", iv)
	}
	if math.Abs(iv[0].Lo-10) > 1e-6 || math.Abs(iv[0].Hi-15) > 1e-6 ||
		math.Abs(iv[1].Lo-25) > 1e-6 || math.Abs(iv[1].Hi-30) > 1e-6 {
		t.Errorf("bands %v", iv)
	}
	// Equivalent formulations agree at sample points.
	alt := Not{X: Or{
		X: Atom{L: F{Var: "y"}, Op: GT, R: C{Value: 100}},
		Y: Atom{L: F{Var: "y"}, Op: LT, R: C{Value: 25}},
	}}
	form2 := NewFormula("y", alt)
	if _, err := RunPast(db, originSq(), 0, 40, form2); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1, 12, 20, 27, 35} {
		if !sameOIDs(form.Answer().At(tt), form2.Answer().At(tt)) {
			t.Errorf("t=%g: %v vs %v", tt, form.Answer().At(tt), form2.Answer().At(tt))
		}
	}
}

func TestFormulaExistsImplies(t *testing.T) {
	// "y is within 4 of some other object": exists z (z != y by distance
	// inequality... we use: exists z (f(z) != f(y) and |comparison|)".
	// Simpler: exists z (f(z) < f(y)) — "y is not the nearest".
	db := lineDB(t, []float64{1, 10}, []float64{0, -1})
	phi := Exists{Var: "z", Body: Atom{L: F{Var: "z"}, Op: LT, R: F{Var: "y"}}}
	form := NewFormula("y", phi)
	if _, err := RunPast(db, originSq(), 0, 12, form); err != nil {
		t.Fatal(err)
	}
	// Exactly the complement of 1-NN (modulo tie instants).
	for _, tt := range []float64{2, 8, 9.5, 11.5} {
		got := form.Answer().At(tt)
		if len(got) != 1 {
			t.Errorf("t=%g: %v, want exactly one non-nearest", tt, got)
		}
	}
}

func TestSessionFutureQuery(t *testing.T) {
	// Future query: start with one object; a later new + chdir +
	// terminate reshape the 1-NN answer. Mirrors the paper's update
	// handling (Section 5).
	db := mod.NewDB(1, -1)
	must(t, db.Apply(mod.New(1, 0, geom.Of(0), geom.Of(5))))
	knn := NewKNN(1)
	sess, err := NewSession(db, originSq(), 0, 100, knn)
	if err != nil {
		t.Fatal(err)
	}
	// Wire live updates.
	db.OnUpdate(func(u mod.Update) {
		if err := sess.Apply(u); err != nil {
			t.Errorf("apply %v: %v", u, err)
		}
	})
	must(t, db.Apply(mod.New(2, 10, geom.Of(0), geom.Of(1)))) // closer from t=10
	must(t, db.Apply(mod.ChDir(2, 20, geom.Of(1))))           // o2 departs outward
	// o2: position 1 until 20, then 1 + (t-20): d2 passes d1=25 when
	// 1+(t-20) = 5 => t = 24.
	must(t, db.Apply(mod.Terminate(2, 40)))
	if err := sess.AdvanceTo(60); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()
	ans := knn.Answer()
	iv2 := ans.Intervals(2)
	if len(iv2) != 1 || math.Abs(iv2[0].Lo-10) > 1e-7 || math.Abs(iv2[0].Hi-24) > 1e-6 {
		t.Errorf("o2 intervals %v, want [10,24]", iv2)
	}
	iv1 := ans.Intervals(1)
	if len(iv1) != 2 || math.Abs(iv1[0].Hi-10) > 1e-7 || math.Abs(iv1[1].Lo-24) > 1e-6 {
		t.Errorf("o1 intervals %v, want [0,10] [24,60]", iv1)
	}
}

func TestSessionRejectsStaleUpdate(t *testing.T) {
	db := mod.NewDB(1, -1)
	must(t, db.Apply(mod.New(1, 0, geom.Of(0), geom.Of(5))))
	sess, err := NewSession(db, originSq(), 0, 100, NewKNN(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AdvanceTo(50); err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(mod.New(2, 30, geom.Of(0), geom.Of(1))); err == nil {
		t.Error("stale update accepted")
	}
	if err := sess.Apply(mod.New(2, 300, geom.Of(0), geom.Of(1))); err == nil {
		t.Error("update beyond window accepted")
	}
}

func TestReplaceGDistanceTheorem10(t *testing.T) {
	// 1-NN to a moving query object; mid-sweep the query object turns
	// (chdir on the query trajectory): all curves change, the current
	// order stays valid, answers follow the new geometry.
	db := mod.NewDB(1, -1)
	must(t, db.Apply(mod.New(1, 0, geom.Of(0), geom.Of(0)))) // at origin
	must(t, db.Apply(mod.New(2, 0.5, geom.Of(0), geom.Of(100))))
	qtraj := trajectory.Linear(0, geom.Of(1), geom.Of(10)) // moving away from o1... toward +
	knn := NewKNN(1)
	sess, err := NewSession(db, gdist.EuclideanSq{Query: qtraj}, 1, 200, knn)
	if err != nil {
		t.Fatal(err)
	}
	// Query at 10+t: d(o1) = (10+t)^2, d(o2) = (90-t)^2: o1 nearest
	// until 10+t = 90-t => t = 40.
	if err := sess.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	if cur := knn.Current(); len(cur) != 1 || cur[0] != 1 {
		t.Fatalf("current 1-NN %v, want o1", cur)
	}
	// At t=20, query turns around (heads back toward o1 at origin):
	// o1 stays nearest forever; the crossing at 40 must be cancelled.
	turned, err := qtraj.ChDir(20, geom.Of(-1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.E.ReplaceGDistance(gdist.EuclideanSq{Query: turned}); err != nil {
		t.Fatal(err)
	}
	if err := sess.AdvanceTo(200); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()
	iv2 := knn.Answer().Intervals(2)
	if len(iv2) != 0 {
		t.Errorf("o2 intervals %v, want none (turnaround cancelled the handover)", iv2)
	}
}

// TestRandomizedKNNAgainstBruteForce cross-checks the full pipeline
// (trajectories -> curves -> sweep -> evaluator) against direct geometric
// computation at random sample times.
func TestRandomizedKNNAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(12)
		k := 1 + rng.Intn(3)
		db := mod.NewDB(2, -1)
		for i := 1; i <= n; i++ {
			pos := geom.Of(rng.Float64()*200-100, rng.Float64()*200-100)
			vel := geom.Of(rng.Float64()*10-5, rng.Float64()*10-5)
			must(t, db.Load(mod.OID(i), trajectory.Linear(0, vel, pos)))
		}
		// A few chdir turns recorded in history (past query: final data);
		// update times must be chronological.
		taus := make([]float64, n/2)
		for i := range taus {
			taus[i] = 1 + rng.Float64()*48
		}
		sort.Float64s(taus)
		for _, tau := range taus {
			o := mod.OID(1 + rng.Intn(n))
			_ = db.Apply(mod.ChDir(o, tau, geom.Of(rng.Float64()*10-5, rng.Float64()*10-5)))
		}
		qtraj := trajectory.Linear(0, geom.Of(rng.Float64()*4-2, rng.Float64()*4-2), geom.Of(0, 0))
		knn := NewKNN(k)
		if _, err := RunPast(db, gdist.EuclideanSq{Query: qtraj}, 0, 50, knn); err != nil {
			t.Fatal(err)
		}
		ans := knn.Answer()
		for probe := 0; probe < 25; probe++ {
			tt := rng.Float64() * 50
			want := bruteKNN(db, qtraj, k, tt)
			got := ans.At(tt)
			if !sameOIDs(got, want) {
				t.Fatalf("trial %d t=%g: sweep %v vs brute %v", trial, tt, got, want)
			}
		}
	}
}

// bruteKNN computes the k nearest objects to the query trajectory at time
// tt directly from the trajectories.
func bruteKNN(db *mod.DB, q trajectory.Trajectory, k int, tt float64) []mod.OID {
	type od struct {
		o mod.OID
		d float64
	}
	var ds []od
	qpos := q.MustAt(tt)
	for o, tr := range db.Trajectories() {
		if !tr.DefinedAt(tt) {
			continue
		}
		ds = append(ds, od{o, tr.MustAt(tt).Dist2(qpos)})
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].o < ds[j].o
	})
	if len(ds) > k {
		ds = ds[:k]
	}
	out := make([]mod.OID, len(ds))
	for i, x := range ds {
		out[i] = x.o
	}
	slices.Sort(out)
	return out
}

// TestRandomizedWithinAgainstBruteForce does the same for thresholds.
func TestRandomizedWithinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(10)
		db := mod.NewDB(2, -1)
		for i := 1; i <= n; i++ {
			pos := geom.Of(rng.Float64()*100-50, rng.Float64()*100-50)
			vel := geom.Of(rng.Float64()*6-3, rng.Float64()*6-3)
			must(t, db.Load(mod.OID(i), trajectory.Linear(0, vel, pos)))
		}
		c := 100 + rng.Float64()*900
		w := NewWithin(c)
		if _, err := RunPast(db, gdist.PointSq{Point: geom.Of(0, 0)}, 0, 40, w); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 25; probe++ {
			tt := rng.Float64() * 40
			var want []mod.OID
			for o, tr := range db.Trajectories() {
				if tr.MustAt(tt).Len2() <= c {
					want = append(want, o)
				}
			}
			slices.Sort(want)
			got := w.Answer().At(tt)
			if !sameOIDs(got, want) {
				t.Fatalf("trial %d t=%g c=%g: %v vs brute %v", trial, tt, c, got, want)
			}
		}
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Error("nil g-distance accepted")
	}
	if _, err := NewEngine(EngineConfig{F: originSq(), Lo: 5, Hi: 2}); err == nil {
		t.Error("inverted window accepted")
	}
	e, err := NewEngine(EngineConfig{F: originSq(), Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyUpdate(mod.Terminate(9, 5)); err == nil {
		t.Error("terminate of unknown object accepted")
	}
	if err := e.ApplyUpdate(mod.ChDir(9, 6, geom.Of(1))); err == nil {
		t.Error("chdir of unknown object accepted")
	}
	if err := e.RunTo(20); err == nil {
		t.Error("RunTo beyond window accepted")
	}
	// Evaluator validation.
	if err := e.AddEvaluator(NewKNN(0)); err == nil {
		t.Error("KNN k=0 accepted")
	}
	if err := e.AddEvaluator(NewFormula("", nil)); err == nil {
		t.Error("empty formula accepted")
	}
}

func TestAnswerSetMergesContiguous(t *testing.T) {
	r := NewAnswerSet()
	r.Enter(1, 0)
	r.Leave(1, 5)
	r.Enter(1, 5)
	r.Leave(1, 9)
	r.Finish(10)
	iv := r.Intervals(1)
	if len(iv) != 1 || iv[0].Lo != 0 || iv[0].Hi != 9 {
		t.Errorf("intervals %v, want merged [0,9]", iv)
	}
	if r.Member(1) {
		t.Error("member after leave")
	}
	if s := r.String(); s == "" {
		t.Error("String")
	}
}

func sameOIDs(a, b []mod.OID) bool {
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

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
