package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/piecewise"
	"repro/internal/poly"
)

// step builds a piecewise-constant curve jumping between values at the
// given times: values[i] holds on [times[i], times[i+1]].
func step(times []float64, values []float64) piecewise.Func {
	var pieces []piecewise.Piece
	for i, v := range values {
		pieces = append(pieces, piecewise.Piece{
			Start: times[i], End: times[i+1], P: poly.Constant(v),
		})
	}
	return piecewise.MustNew(pieces...)
}

// TestRecertifyJumpOverNeighbor covers the paper's relaxed g-distances
// (finitely many continuous pieces): a curve that jumps over a neighbor
// without ever intersecting it must still end up correctly ordered.
func TestRecertifyJumpOverNeighbor(t *testing.T) {
	var log []Change
	s := NewSweeper(Config{Start: 0, Horizon: 100, OnChange: func(c Change) {
		log = append(log, c)
	}})
	// id1 sits at 1 until t=10, then jumps to 9 (no crossing of id2=5).
	mustAdd(t, s, 1, step([]float64{0, 10, 100}, []float64{1, 9}))
	mustAdd(t, s, 2, piecewise.FromPoly(poly.Constant(5), 0, 100))
	if got := s.Order(); got[0] != 1 {
		t.Fatalf("initial order %v", got)
	}
	if err := s.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("order after jump %v, want [2 1]", got)
	}
	if err := s.AuditOrder(); err != nil {
		t.Fatal(err)
	}
	// The recertification shows up as a Remove/Insert pair at t=10.
	var sawRemove, sawInsert bool
	for _, c := range log {
		if c.T == 10 && c.A == 1 {
			if c.Kind == ChangeRemove {
				sawRemove = true
			}
			if c.Kind == ChangeInsert {
				sawInsert = true
			}
		}
	}
	if !sawRemove || !sawInsert {
		t.Errorf("recert changes missing: %v", log)
	}
}

func TestRecertifyMultipleJumps(t *testing.T) {
	s := NewSweeper(Config{Start: 0, Horizon: 100, Audit: true})
	// Square-wave curve bouncing across two constants.
	mustAdd(t, s, 1, step([]float64{0, 10, 20, 30, 100}, []float64{0, 6, 0, 6}))
	mustAdd(t, s, 2, piecewise.FromPoly(poly.Constant(2), 0, 100))
	mustAdd(t, s, 3, piecewise.FromPoly(poly.Constant(4), 0, 100))
	wantAt := func(tt float64, want []uint64) {
		t.Helper()
		if err := s.AdvanceTo(tt); err != nil {
			t.Fatal(err)
		}
		got := s.Order()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("t=%g: order %v, want %v", tt, got, want)
			}
		}
	}
	wantAt(5, []uint64{1, 2, 3})
	wantAt(15, []uint64{2, 3, 1})
	wantAt(25, []uint64{1, 2, 3})
	wantAt(35, []uint64{2, 3, 1})
}

// TestRecertifyMixedWithCrossings mixes a discontinuous curve with a
// moving continuous one: crossings on the continuous stretches and jumps
// at the discontinuities must interleave correctly.
func TestRecertifyMixedWithCrossings(t *testing.T) {
	s := NewSweeper(Config{Start: 0, Horizon: 100, Audit: true})
	// id1: rises 0..20 on [0,10] (crosses id2=5 at t=5), jumps down to 1
	// at t=10 (back below), then rises again (crosses at t=14).
	f1 := piecewise.MustNew(
		piecewise.Piece{Start: 0, End: 10, P: poly.Linear(2, 0)},
		piecewise.Piece{Start: 10, End: 100, P: poly.Linear(1, -9)},
	)
	mustAdd(t, s, 1, f1)
	mustAdd(t, s, 2, piecewise.FromPoly(poly.Constant(5), 0, 100))
	if err := s.AdvanceTo(7); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 {
		t.Fatalf("after first crossing: %v", got)
	}
	if err := s.AdvanceTo(12); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 1 {
		t.Fatalf("after jump back down: %v", got)
	}
	if err := s.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 {
		t.Fatalf("after second crossing: %v", got)
	}
	if st := s.Stats(); st.Swaps < 2 {
		t.Errorf("swaps = %d, want >= 2", st.Swaps)
	}
}

func TestContinuousCurveHasNoRecertEvents(t *testing.T) {
	f := piecewise.MustNew(
		piecewise.Piece{Start: 0, End: 10, P: poly.Linear(1, 0)},
		piecewise.Piece{Start: 10, End: 100, P: poly.Linear(-1, 20)},
	)
	if ds := f.Discontinuities(0, 100); len(ds) != 0 {
		t.Fatalf("continuous curve reports discontinuities: %v", ds)
	}
	g := step([]float64{0, 50, 100}, []float64{1, 2})
	ds := g.Discontinuities(0, 100)
	if len(ds) != 1 || math.Abs(ds[0]-50) > 1e-12 {
		t.Fatalf("Discontinuities = %v, want [50]", ds)
	}
	if ds := g.Discontinuities(50, 100); len(ds) != 0 {
		t.Fatalf("window-excluded discontinuity reported: %v", ds)
	}
}

// TestRecertifyTakesItsStaleEventsAlong: a curve's post-jump piece
// re-inserts it away from its old neighbours, and the crossing events
// of its old adjacencies leave the queue with it. The old pair still
// meets after the jump (the pair-difference curve runs across the
// jump), so a left-behind event stays scheduled: right after the jump
// the queue holds exactly the events of the new adjacencies, and audit
// mode panics on a stale event when the sweep reaches it.
func TestRecertifyTakesItsStaleEventsAlong(t *testing.T) {
	for _, tc := range []struct {
		name       string
		curves     map[uint64]piecewise.Func
		before     []uint64 // order before the jump at t = 20
		after      []uint64 // order right after it
		wantQueued int      // events of the new adjacencies
	}{
		{
			// 2 sits between 1 and 3 and jumps above 4: its old
			// (2, 3) event, keyed by 2, must leave.
			name: "middle to the end",
			curves: map[uint64]piecewise.Func{
				1: piecewise.FromPoly(poly.Constant(0), 0, 100),
				2: step([]float64{0, 20, 100}, []float64{10, 100}),
				3: piecewise.FromPoly(poly.Linear(1, 30), 0, 100), // meets 100 at t = 70
				4: piecewise.FromPoly(poly.Constant(90), 0, 100),  // 3 passes it at t = 60
			},
			before:     []uint64{1, 2, 3, 4},
			after:      []uint64{1, 3, 4, 2},
			wantQueued: 1, // (3, 4) at 60
		},
		{
			// 3 is last and jumps below 2: the (2, 3) event, keyed by
			// its predecessor 2, must leave.
			name: "last below its predecessor",
			curves: map[uint64]piecewise.Func{
				1: piecewise.FromPoly(poly.Constant(0), 0, 100),
				2: piecewise.FromPoly(poly.Constant(10), 0, 100),
				3: piecewise.MustNew(
					piecewise.Piece{Start: 0, End: 20, P: poly.Constant(30)},
					piecewise.Piece{Start: 20, End: 100, P: poly.Linear(1, -15)}, // 5 at t = 20, meets 10 at 25
				),
			},
			before:     []uint64{1, 2, 3},
			after:      []uint64{1, 3, 2},
			wantQueued: 1, // (3, 2) at 25
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSweeper(Config{Start: 0, Horizon: 100, Audit: true})
			for _, id := range tc.before {
				mustAdd(t, s, id, tc.curves[id])
			}
			if got := s.Order(); fmt.Sprint(got) != fmt.Sprint(tc.before) {
				t.Fatalf("order %v, want %v", got, tc.before)
			}
			if err := s.AdvanceTo(21); err != nil {
				t.Fatal(err)
			}
			if got := s.Order(); fmt.Sprint(got) != fmt.Sprint(tc.after) {
				t.Fatalf("order after the jump %v, want %v", got, tc.after)
			}
			if n := s.QueueLen(); n != tc.wantQueued {
				t.Errorf("%d events queued after the jump, want %d", n, tc.wantQueued)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("sweeping past the jump: %v", r)
					}
				}()
				if err := s.AdvanceTo(100); err != nil {
					t.Fatal(err)
				}
			}()
			if err := s.AuditOrder(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
