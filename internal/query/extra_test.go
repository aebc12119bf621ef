package query

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/piecewise"
	"repro/internal/trajectory"
)

// TestSpeedGDistanceWithChDir exercises a discontinuous g-distance (the
// paper's relaxed definition): rank objects by speed while chdir updates
// change speeds mid-query.
func TestSpeedGDistanceWithChDir(t *testing.T) {
	db := mod.NewDB(2, -1)
	must(t, db.Load(1, trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))))  // speed 1
	must(t, db.Load(2, trajectory.Linear(0, geom.Of(3, 0), geom.Of(10, 0)))) // speed 3
	knn := NewKNN(1)                                                         // slowest object
	sess, err := NewSession(db, gdist.SpeedSq{}, 0, 100, knn)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if cur := knn.Current(); len(cur) != 1 || cur[0] != 1 {
		t.Fatalf("slowest = %v, want o1", cur)
	}
	// o1 accelerates to speed 5 at t=10: o2 becomes slowest instantly
	// (a jump in the curve, no intersection).
	if err := sess.Apply(mod.ChDir(1, 10, geom.Of(5, 0))); err != nil {
		t.Fatal(err)
	}
	if err := sess.AdvanceTo(11); err != nil {
		t.Fatal(err)
	}
	if cur := knn.Current(); len(cur) != 1 || cur[0] != 2 {
		t.Fatalf("slowest after chdir = %v, want o2", cur)
	}
	_ = sess.Close()
	iv2 := knn.Answer().Intervals(2)
	if len(iv2) != 1 || math.Abs(iv2[0].Lo-10) > 1e-9 {
		t.Errorf("o2 slowest intervals %v, want from 10", iv2)
	}
}

// TestSpeedDiscontinuityRecordedInHistory: a past query over trajectories
// whose recorded turns change speed — the jumps are re-certified during
// the replay.
func TestSpeedDiscontinuityRecordedInHistory(t *testing.T) {
	db := mod.NewDB(2, -1)
	tr := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	tr2, err := tr.ChDir(10, geom.Of(4, 0)) // speed 1 -> 4 at t=10
	must(t, err)
	must(t, db.Load(1, tr2))
	must(t, db.Load(2, trajectory.Linear(0, geom.Of(2, 0), geom.Of(5, 5))))
	knn := NewKNN(1)
	if _, err := RunPast(db, gdist.SpeedSq{}, 0, 20, knn); err != nil {
		t.Fatal(err)
	}
	iv1 := knn.Answer().Intervals(1)
	if len(iv1) != 1 || math.Abs(iv1[0].Hi-10) > 1e-9 {
		t.Errorf("o1 slowest %v, want [0,10]", iv1)
	}
	iv2 := knn.Answer().Intervals(2)
	if len(iv2) != 1 || math.Abs(iv2[0].Lo-10) > 1e-9 || math.Abs(iv2[0].Hi-20) > 1e-9 {
		t.Errorf("o2 slowest %v, want [10,20]", iv2)
	}
}

// TestEngineAccessors covers the read-side helpers.
func TestEngineAccessors(t *testing.T) {
	db := mod.NewDB(1, -1)
	must(t, db.Load(1, trajectory.Stationary(0, geom.Of(5))))
	e, err := NewEngine(EngineConfig{F: gdist.PointSq{Point: geom.Of(0)}, Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	must(t, e.Seed(db.Trajectories()))
	if lo, hi := e.Window(); lo != 0 || hi != 10 {
		t.Errorf("Window = [%g,%g]", lo, hi)
	}
	if e.GDistance() == nil {
		t.Error("GDistance nil")
	}
	if _, ok := e.Traj(1); !ok {
		t.Error("Traj(1) missing")
	}
	if _, ok := e.Traj(9); ok {
		t.Error("Traj(9) present")
	}
	if n := e.NumObjects(); n != 1 {
		t.Errorf("NumObjects = %d", n)
	}
	if e.UpdatesApplied() != 0 {
		t.Error("UpdatesApplied")
	}
	must(t, e.ApplyUpdate(mod.New(2, 5, geom.Of(0), geom.Of(1))))
	if e.UpdatesApplied() != 1 || e.NumObjects() != 2 {
		t.Error("after update")
	}
}

// TestFormulaStrings covers the Stringers used in diagnostics.
func TestFormulaStrings(t *testing.T) {
	phi := ForAll{Var: "z", Body: Implies{
		X: Atom{L: F{Var: "z"}, Op: NE, R: F{Var: "y"}},
		Y: Or{
			X: Atom{L: F{Var: "y"}, Op: LT, R: F{Var: "z"}},
			Y: Not{X: Exists{Var: "w", Body: Atom{L: F{Var: "w"}, Op: GT, R: C{Value: 3}}}},
		},
	}}
	s := phi.String()
	for _, want := range []string{"∀z", "∃w", "f(y,t)", "f(w,t)", "¬", "∨", "→", "3"} {
		if !contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE, CmpOp(99)} {
		if op.String() == "" {
			t.Error("empty op string")
		}
	}
}

// TestFormulaImpliesEval checks the implication connective's truth table
// through evaluation.
func TestFormulaImpliesEval(t *testing.T) {
	db := mod.NewDB(1, -1)
	must(t, db.Load(1, trajectory.Stationary(0, geom.Of(2)))) // d^2 = 4
	// (4 <= 3) -> (4 <= 100): vacuously true.
	phi := Implies{
		X: Atom{L: F{Var: "y"}, Op: LE, R: C{Value: 3}},
		Y: Atom{L: F{Var: "y"}, Op: LE, R: C{Value: 100}},
	}
	form := NewFormula("y", phi)
	if _, err := RunPast(db, gdist.PointSq{Point: geom.Of(0)}, 0, 10, form); err != nil {
		t.Fatal(err)
	}
	if got := form.Answer().At(5); len(got) != 1 {
		t.Errorf("vacuous implication: %v", got)
	}
	// (4 <= 100) -> (4 <= 3): false.
	phi2 := Implies{
		X: Atom{L: F{Var: "y"}, Op: LE, R: C{Value: 100}},
		Y: Atom{L: F{Var: "y"}, Op: LE, R: C{Value: 3}},
	}
	form2 := NewFormula("y", phi2)
	if _, err := RunPast(db, gdist.PointSq{Point: geom.Of(0)}, 0, 10, form2); err != nil {
		t.Fatal(err)
	}
	if got := form2.Answer().At(5); len(got) != 0 {
		t.Errorf("failed implication: %v", got)
	}
}

// TestWithinCurrent covers the live-set accessor.
func TestWithinCurrent(t *testing.T) {
	db := mod.NewDB(1, -1)
	must(t, db.Load(1, trajectory.Stationary(0, geom.Of(2))))
	must(t, db.Load(2, trajectory.Stationary(0, geom.Of(50))))
	w := NewWithin(25)
	sess, err := NewSession(db, gdist.PointSq{Point: geom.Of(0)}, 0, 100, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if cur := w.Current(); len(cur) != 1 || cur[0] != 1 {
		t.Errorf("Current = %v", cur)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// failingDist errors after a configurable number of Curve calls —
// failure injection for the engine's update path.
type failingDist struct {
	inner gdist.GDistance
	calls *int
	after int
}

func (f failingDist) Name() string { return "failing" }
func (f failingDist) Curve(tr trajectory.Trajectory, lo, hi float64) (piecewise.Func, error) {
	*f.calls++
	if *f.calls > f.after {
		return piecewise.Func{}, errInjected
	}
	return f.inner.Curve(tr, lo, hi)
}

var errInjected = errors.New("injected curve failure")

func TestEngineSurvivesCurveFailure(t *testing.T) {
	db := mod.NewDB(1, -1)
	must(t, db.Load(1, trajectory.Stationary(0, geom.Of(1))))
	must(t, db.Load(2, trajectory.Stationary(0, geom.Of(5))))
	calls := 0
	fd := failingDist{inner: gdist.PointSq{Point: geom.Of(0)}, calls: &calls, after: 2}
	knn := NewKNN(1)
	sess, err := NewSession(db, fd, 0, 100, knn)
	if err != nil {
		t.Fatal(err) // seeding uses 2 calls: fine
	}
	if err := sess.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	// The third curve build (a new object) fails; the error must surface
	// and the existing sweep state must stay usable.
	err = sess.Apply(mod.New(3, 6, geom.Of(0), geom.Of(0.5)))
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if err := sess.AdvanceTo(10); err != nil {
		t.Fatalf("sweep unusable after failed update: %v", err)
	}
	if cur := knn.Current(); len(cur) != 1 || cur[0] != 1 {
		t.Errorf("answer corrupted after failed update: %v", cur)
	}
	// A chdir whose rebuild fails must also surface cleanly.
	err = sess.Apply(mod.ChDir(1, 12, geom.Of(1)))
	if !errors.Is(err, errInjected) {
		t.Fatalf("chdir err = %v", err)
	}
}
