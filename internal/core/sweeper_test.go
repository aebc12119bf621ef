package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/eventq"
	"repro/internal/piecewise"
	"repro/internal/poly"
)

// lineCurve builds the curve a*t + b on [0, 1000].
func lineCurve(a, b float64) piecewise.Func {
	return piecewise.FromPoly(poly.Linear(a, b), 0, 1000)
}

func newTestSweeper(t *testing.T, changes *[]Change) *Sweeper {
	t.Helper()
	return NewSweeper(Config{
		Start:   0,
		Horizon: 1000,
		Audit:   true,
		OnChange: func(c Change) {
			if changes != nil {
				*changes = append(*changes, c)
			}
		},
	})
}

func TestTwoLinesCross(t *testing.T) {
	var log []Change
	s := newTestSweeper(t, &log)
	// f1 = t, f2 = 10 - t: cross at 5.
	mustAdd(t, s, 1, lineCurve(1, 0))
	mustAdd(t, s, 2, lineCurve(-1, 10))
	if got := s.Order(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("initial order %v", got)
	}
	if err := s.AdvanceTo(4); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 1 {
		t.Fatal("premature swap")
	}
	if err := s.AdvanceTo(6); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("order after cross %v", got)
	}
	// The change stream: insert, insert, equal@5, swap@5.
	var kinds []string
	for _, c := range log {
		kinds = append(kinds, c.Kind.String())
	}
	want := []string{"insert", "insert", "equal", "swap"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("change kinds %v, want %v", kinds, want)
	}
	if log[2].T != 5 || log[3].T != 5 {
		t.Errorf("event times %v", log)
	}
	st := s.Stats()
	if st.Events != 1 || st.Swaps != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestTangencyDoesNotSwap(t *testing.T) {
	var log []Change
	s := newTestSweeper(t, &log)
	// f1 = (t-5)^2 + 1 dips to touch f2 = 1 at t=5 without crossing.
	mustAdd(t, s, 1, piecewise.FromPoly(poly.New(26, -10, 1), 0, 1000))
	mustAdd(t, s, 2, piecewise.FromPoly(poly.Constant(1), 0, 1000))
	if got := s.Order(); got[0] != 2 {
		t.Fatalf("initial order %v", got)
	}
	if err := s.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("tangency swapped order: %v", got)
	}
	var sawEqual bool
	for _, c := range log {
		if c.Kind == ChangeSwap {
			t.Error("unexpected swap")
		}
		if c.Kind == ChangeEqual && math.Abs(c.T-5) < 1e-6 {
			sawEqual = true
		}
	}
	if !sawEqual {
		t.Error("tangency equality not reported")
	}
}

func TestDoubleCross(t *testing.T) {
	s := newTestSweeper(t, nil)
	// Parabola crosses the line twice: swap out and back.
	mustAdd(t, s, 1, piecewise.FromPoly(poly.FromRoots(8, 17).Add(poly.Constant(5)), 0, 1000))
	mustAdd(t, s, 2, piecewise.FromPoly(poly.Constant(5), 0, 1000))
	// f1 - f2 = (t-8)(t-17): f1 above before 8, below in (8,17), above after.
	if got := s.Order(); got[0] != 2 {
		t.Fatalf("initial order %v", got)
	}
	if err := s.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 1 {
		t.Fatalf("after first cross %v", got)
	}
	if err := s.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 {
		t.Fatalf("after second cross %v", got)
	}
	if st := s.Stats(); st.Swaps != 2 {
		t.Errorf("swaps = %d, want 2", st.Swaps)
	}
}

func TestThreeWayMeeting(t *testing.T) {
	// Three lines meeting at one point: order fully reverses.
	s := newTestSweeper(t, nil)
	mustAdd(t, s, 1, lineCurve(0, 5))  // constant 5
	mustAdd(t, s, 2, lineCurve(1, 0))  // t
	mustAdd(t, s, 3, lineCurve(2, -5)) // 2t-5: all meet at t=5 value 5
	if got := s.Order(); got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("initial order %v", got)
	}
	if err := s.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("after three-way meeting %v", got)
	}
}

func TestInsertRemoveMidSweep(t *testing.T) {
	var log []Change
	s := newTestSweeper(t, &log)
	mustAdd(t, s, 1, lineCurve(0, 0))
	mustAdd(t, s, 2, lineCurve(0, 10))
	if err := s.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	// Insert a falling line between them: 8 - t at t=3 has value 5.
	mustAdd(t, s, 3, lineCurve(-1, 8))
	if got := s.Order(); got[1] != 3 {
		t.Fatalf("order with midline %v", got)
	}
	// It crosses id 1 (value 0) at t=8.
	if err := s.AdvanceTo(9); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 3 || got[1] != 1 {
		t.Fatalf("after cross %v", got)
	}
	if err := s.RemoveCurve(3); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Contains(3) {
		t.Error("remove failed")
	}
	if err := s.RemoveCurve(3); err == nil {
		t.Error("double remove accepted")
	}
}

// TestRemovedCurveTakesItsEventsAlong: a removed curve's scheduled
// crossing leaves the queue with it, whether the event is keyed by the
// removed curve (it sat in the middle of the order) or by its
// predecessor, whose event pointed at it (it was the last curve). Audit
// mode panics on a stale event, so advancing past the crossing fails
// here if either is left behind.
func TestRemovedCurveTakesItsEventsAlong(t *testing.T) {
	for _, tc := range []struct {
		name      string
		remove    uint64
		wantOrder []uint64
		wantEvent int // events processed after the removal
	}{
		{"middle", 2, []uint64{3, 1}, 1}, // 1 and 3 still cross at t = 30
		{"last", 3, []uint64{1, 2}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSweeper(t, nil)
			mustAdd(t, s, 1, lineCurve(0, 0))
			mustAdd(t, s, 2, lineCurve(1, 10))
			mustAdd(t, s, 3, lineCurve(-1, 30)) // crosses 2 at t = 10
			if err := s.AdvanceTo(5); err != nil {
				t.Fatal(err)
			}
			if at, ok := s.NextEventTime(); !ok || at != 10 {
				t.Fatalf("next event at %g (%v), want the crossing of 2 and 3 at 10", at, ok)
			}
			if err := s.RemoveCurve(tc.remove); err != nil {
				t.Fatal(err)
			}
			before := s.Stats().Events
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("advancing past the removed curve's crossing: %v", r)
					}
				}()
				if err := s.AdvanceTo(40); err != nil {
					t.Fatal(err)
				}
			}()
			if got := s.Order(); fmt.Sprint(got) != fmt.Sprint(tc.wantOrder) {
				t.Errorf("order %v, want %v", got, tc.wantOrder)
			}
			if got := s.Stats().Events - before; got != tc.wantEvent {
				t.Errorf("%d events after the removal, want %d", got, tc.wantEvent)
			}
		})
	}
}

func TestReplaceCurveCancelsCross(t *testing.T) {
	// Figure 2's A-update: o1 heading to cross o2 at D; a chdir before
	// the crossing cancels it.
	s := newTestSweeper(t, nil)
	mustAdd(t, s, 1, lineCurve(-1, 20)) // falling toward o2
	mustAdd(t, s, 2, lineCurve(0, 10))  // constant 10; cross at t=10
	if err := s.AdvanceTo(4); err != nil {
		t.Fatal(err)
	}
	// chdir at t=4: o1 levels off at 16, never meets o2.
	repl := piecewise.MustNew(
		piecewise.Piece{Start: 0, End: 4, P: poly.Linear(-1, 20)},
		piecewise.Piece{Start: 4, End: 1000, P: poly.Constant(16)},
	)
	if err := s.ReplaceCurve(1, repl); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("cancelled cross still happened: %v", got)
	}
	if st := s.Stats(); st.Swaps != 0 {
		t.Errorf("swaps = %d, want 0", st.Swaps)
	}
}

// TestReplaceCurveLeavesCoincidingNeighbor: curves that coincide are
// ordered by id, so when a replacement (a chdir's curve, starting now)
// makes one of them leave the others, its position may be on the wrong
// side of a curve it met at this very instant — no later event repairs
// that, and the crossings beyond it were scheduled for the wrong
// neighbor.
func TestReplaceCurveLeavesCoincidingNeighbor(t *testing.T) {
	s := newTestSweeper(t, nil)
	mustAdd(t, s, 1, lineCurve(0, 10))
	mustAdd(t, s, 2, lineCurve(0, 10))
	mustAdd(t, s, 3, lineCurve(0, 20))
	if err := s.AdvanceTo(4); err != nil {
		t.Fatal(err)
	}
	// 1 starts to rise: (t-4)^2 + 10, passing 3 at t = 4 + sqrt(10).
	rising := piecewise.FromPoly(poly.New(26, -8, 1), 4, 1000)
	if err := s.ReplaceCurve(1, rising); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("order after 1 left 2 upward: %v, want [2 1 3]", got)
	}
	if err := s.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("order after 1 passed 3: %v, want [2 3 1]", got)
	}
	// 3 starts to fall from behind nothing it ties with: keeps its place,
	// crosses 2 later as any chdir would.
	falling := piecewise.FromPoly(poly.Linear(-1, 120), 100, 1000)
	if err := s.ReplaceCurve(3, falling); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 3 {
		t.Fatalf("order after an untied replacement: %v, want [2 3 1]", got)
	}
	if err := s.AdvanceTo(200); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 3 || got[1] != 2 {
		t.Fatalf("order after 3 fell past 2: %v, want [3 2 1]", got)
	}
	if err := s.AuditOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestExpiryRemovesCurve(t *testing.T) {
	var log []Change
	s := newTestSweeper(t, &log)
	mustAdd(t, s, 1, piecewise.FromPoly(poly.Constant(1), 0, 50))
	mustAdd(t, s, 2, lineCurve(0, 2))
	if err := s.AdvanceTo(60); err != nil {
		t.Fatal(err)
	}
	if s.Contains(1) {
		t.Error("expired curve still present")
	}
	var sawExpire bool
	for _, c := range log {
		if c.Kind == ChangeExpire && c.A == 1 && c.T == 50 {
			sawExpire = true
		}
	}
	if !sawExpire {
		t.Errorf("no expire change: %v", log)
	}
}

func TestCoincidenceHandling(t *testing.T) {
	var log []Change
	s := newTestSweeper(t, &log)
	// id1 descends onto id2's constant level, rides along, then leaves
	// upward: equal at 5, coincide on [5,10], separate at 10.
	f1 := piecewise.MustNew(
		piecewise.Piece{Start: 0, End: 5, P: poly.Linear(-1, 8)},
		piecewise.Piece{Start: 5, End: 10, P: poly.Constant(3)},
		piecewise.Piece{Start: 10, End: 1000, P: poly.Linear(1, -7)},
	)
	f2 := piecewise.FromPoly(poly.Constant(3), 0, 1000)
	mustAdd(t, s, 1, f1)
	mustAdd(t, s, 2, f2)
	if err := s.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	// After separation id1 rises above id2: id2 first. During the whole
	// run id1 never went below id2, so final order has 2 before 1.
	got := s.Order()
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("order %v", got)
	}
	var sawEqual, sawSeparate bool
	for _, c := range log {
		if c.Kind == ChangeEqual && math.Abs(c.T-5) < 1e-6 {
			sawEqual = true
		}
		if c.Kind == ChangeSeparate && math.Abs(c.T-10) < 1e-6 {
			sawSeparate = true
		}
	}
	if !sawEqual || !sawSeparate {
		t.Errorf("coincidence events missing: %v", log)
	}
}

func TestCoincidenceWithFlip(t *testing.T) {
	s := newTestSweeper(t, nil)
	// id1 descends to id2's level, rides along, then continues DOWN:
	// order flips across the coincidence.
	f1 := piecewise.MustNew(
		piecewise.Piece{Start: 0, End: 5, P: poly.Linear(-1, 8)},
		piecewise.Piece{Start: 5, End: 10, P: poly.Constant(3)},
		piecewise.Piece{Start: 10, End: 1000, P: poly.Linear(-1, 13)},
	)
	f2 := piecewise.FromPoly(poly.Constant(3), 0, 1000)
	mustAdd(t, s, 1, f1)
	mustAdd(t, s, 2, f2)
	if got := s.Order(); got[0] != 2 {
		t.Fatalf("initial %v", got)
	}
	if err := s.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("flip across coincidence failed: %v", got)
	}
}

func TestAdvanceErrors(t *testing.T) {
	s := NewSweeper(Config{Start: 10, Horizon: 100})
	if err := s.AdvanceTo(5); err == nil {
		t.Error("backward advance accepted")
	}
	if err := s.AdvanceTo(200); err == nil {
		t.Error("advance past horizon accepted")
	}
	if err := s.AdvanceTo(50); err != nil {
		t.Error(err)
	}
	if s.Now() != 50 {
		t.Errorf("Now = %g", s.Now())
	}
}

func TestAddCurveErrors(t *testing.T) {
	s := NewSweeper(Config{Start: 10, Horizon: 100})
	if err := s.AddCurve(1, piecewise.FromPoly(poly.Constant(1), 20, 90)); err == nil {
		t.Error("curve not covering now accepted")
	}
	if err := s.AddCurve(1, piecewise.FromPoly(poly.Constant(1), 0, 90)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCurve(1, piecewise.FromPoly(poly.Constant(2), 0, 90)); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := s.Value(1); err != nil {
		t.Error(err)
	}
	if _, err := s.Value(9); err == nil {
		t.Error("value of missing id")
	}
	if err := s.ReplaceCurve(9, piecewise.FromPoly(poly.Constant(1), 0, 90)); err == nil {
		t.Error("replace missing id accepted")
	}
	if err := s.ReplaceCurve(1, piecewise.FromPoly(poly.Constant(1), 50, 90)); err == nil {
		t.Error("replace with non-covering curve accepted")
	}
}

func TestRankSelectFirstK(t *testing.T) {
	s := newTestSweeper(t, nil)
	for i := uint64(1); i <= 5; i++ {
		mustAdd(t, s, i, lineCurve(0, float64(i*10)))
	}
	if r, _ := s.Rank(3); r != 2 {
		t.Errorf("Rank(3) = %d", r)
	}
	if id, _ := s.At(0); id != 1 {
		t.Errorf("At(0) = %d", id)
	}
	fk := s.FirstK(2)
	if len(fk) != 2 || fk[0] != 1 || fk[1] != 2 {
		t.Errorf("FirstK = %v", fk)
	}
	if f, ok := s.Curve(3); !ok || f.Eval(0) != 30 {
		t.Error("Curve accessor")
	}
	if s.Horizon() != 1000 {
		t.Error("Horizon accessor")
	}
	if s.QueueLen() < 0 {
		t.Error("QueueLen")
	}
}

// TestRandomizedAgainstBruteForce builds random piecewise-linear curve
// sets, sweeps them, and at many checkpoints compares the maintained
// order with a from-scratch sort of curve values.
func TestRandomizedAgainstBruteForce(t *testing.T) {
	for _, useLeftist := range []bool{false, true} {
		name := "heap"
		if useLeftist {
			name = "leftist"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				var q eventq.Queue
				if useLeftist {
					q = eventq.NewLeftist()
				}
				s := NewSweeper(Config{Start: 0, Horizon: 100, Queue: q, Audit: true})
				n := 5 + rng.Intn(20)
				curves := map[uint64]piecewise.Func{}
				for i := 0; i < n; i++ {
					id := uint64(i + 1)
					f := randPiecewiseLinear(rng)
					curves[id] = f
					if err := s.AddCurve(id, f); err != nil {
						t.Fatal(err)
					}
				}
				for _, checkpoint := range []float64{10, 25, 50, 75, 99} {
					if err := s.AdvanceTo(checkpoint); err != nil {
						t.Fatal(err)
					}
					verifyOrderAgainstBrute(t, s, curves, checkpoint)
				}
			}
		})
	}
}

// randPiecewiseLinear builds a continuous piecewise-linear curve on
// [0, 100] with 1-4 pieces and integer-ish breakpoints.
func randPiecewiseLinear(rng *rand.Rand) piecewise.Func {
	nb := rng.Intn(3)
	breaks := []float64{0}
	for i := 0; i < nb; i++ {
		breaks = append(breaks, 1+math.Floor(rng.Float64()*98))
	}
	breaks = append(breaks, 100)
	sort.Float64s(breaks)
	// Deduplicate.
	uniq := breaks[:1]
	for _, b := range breaks[1:] {
		if b > uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	val := rng.Float64()*200 - 100
	var pieces []piecewise.Piece
	for i := 0; i+1 < len(uniq); i++ {
		slope := math.Floor(rng.Float64()*21) - 10
		a, b := uniq[i], uniq[i+1]
		// p(t) = val + slope*(t - a)
		pieces = append(pieces, piecewise.Piece{
			Start: a, End: b,
			P: poly.Linear(slope, val-slope*a),
		})
		val += slope * (b - a)
	}
	return piecewise.MustNew(pieces...)
}

func verifyOrderAgainstBrute(t *testing.T, s *Sweeper, curves map[uint64]piecewise.Func, at float64) {
	t.Helper()
	got := s.Order()
	type ov struct {
		id uint64
		v  float64
	}
	var want []ov
	for id, f := range curves {
		want = append(want, ov{id, f.Eval(at)})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].v < want[j].v })
	if len(got) != len(want) {
		t.Fatalf("at %g: %d vs %d entries", at, len(got), len(want))
	}
	// The maintained order must agree with the value sort up to ties.
	for i := range got {
		gv := curves[got[i]].Eval(at)
		if math.Abs(gv-want[i].v) > 1e-6*math.Max(1, math.Abs(want[i].v)) {
			t.Fatalf("at %g rank %d: sweep has id %d (v=%g), brute force value %g\nsweep order %v",
				at, i, got[i], gv, want[i].v, got)
		}
	}
}

func mustAdd(t *testing.T, s *Sweeper, id uint64, f piecewise.Func) {
	t.Helper()
	if err := s.AddCurve(id, f); err != nil {
		t.Fatalf("AddCurve(%d): %v", id, err)
	}
}
