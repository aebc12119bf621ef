package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/piecewise"
	"repro/internal/poly"
)

func TestReplaceAll(t *testing.T) {
	s := newTestSweeper(t, nil)
	// Two diverging lines...
	mustAdd(t, s, 1, lineCurve(0, 0))
	mustAdd(t, s, 2, lineCurve(1, 5))
	if err := s.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	// Replace both curves preserving values at t=10 (the Theorem 10
	// contract): id1 stays 0 -> rises steeply; id2 at 15 -> falls.
	repl := map[uint64]piecewise.Func{
		1: piecewise.MustNew(
			piecewise.Piece{Start: 0, End: 10, P: poly.Constant(0)},
			piecewise.Piece{Start: 10, End: 1000, P: poly.Linear(3, -30)},
		),
		2: piecewise.MustNew(
			piecewise.Piece{Start: 0, End: 10, P: poly.Linear(1, 5)},
			piecewise.Piece{Start: 10, End: 1000, P: poly.Linear(-1, 25)},
		),
	}
	if err := s.ReplaceAll(repl); err != nil {
		t.Fatal(err)
	}
	// New crossing: 3t-30 = 25-t => t = 13.75.
	if err := s.AdvanceTo(20); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("order after replaced-curve crossing: %v", got)
	}
	if st := s.Stats(); st.Swaps != 1 {
		t.Errorf("swaps = %d, want 1", st.Swaps)
	}
}

func TestReplaceAllValidation(t *testing.T) {
	s := newTestSweeper(t, nil)
	mustAdd(t, s, 1, lineCurve(0, 0))
	mustAdd(t, s, 2, lineCurve(0, 5))
	// Wrong cardinality.
	if err := s.ReplaceAll(map[uint64]piecewise.Func{1: lineCurve(0, 0)}); err == nil {
		t.Error("short replacement set accepted")
	}
	// Unknown id.
	if err := s.ReplaceAll(map[uint64]piecewise.Func{
		1: lineCurve(0, 0), 9: lineCurve(0, 1),
	}); err == nil {
		t.Error("unknown id accepted")
	}
	// Curve not covering now.
	if err := s.ReplaceAll(map[uint64]piecewise.Func{
		1: lineCurve(0, 0),
		2: piecewise.FromPoly(poly.Constant(1), 50, 90),
	}); err == nil {
		t.Error("non-covering curve accepted")
	}
}

func TestWalkStopsEarly(t *testing.T) {
	s := newTestSweeper(t, nil)
	for i := uint64(1); i <= 5; i++ {
		mustAdd(t, s, i, lineCurve(0, float64(i)))
	}
	var visited []uint64
	s.Walk(func(id uint64) bool {
		visited = append(visited, id)
		return len(visited) < 3
	})
	if len(visited) != 3 || visited[0] != 1 || visited[2] != 3 {
		t.Errorf("visited = %v", visited)
	}
}

func TestChangeAndKindStrings(t *testing.T) {
	for k := ChangeEqual; k <= ChangeExpire; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if ChangeKind(99).String() != "unknown" {
		t.Error("out-of-range kind")
	}
	pair := Change{T: 5, Kind: ChangeSwap, A: 1, B: 2}
	if got := pair.String(); !strings.Contains(got, "swap(1,2)") {
		t.Errorf("pair String = %q", got)
	}
	un := Change{T: 5, Kind: ChangeInsert, A: 7}
	if got := un.String(); !strings.Contains(got, "insert(7)") {
		t.Errorf("unary String = %q", got)
	}
}

func TestUnboundedHorizon(t *testing.T) {
	s := NewSweeper(Config{Start: 0, Horizon: math.Inf(1)})
	if !math.IsInf(s.Horizon(), 1) {
		t.Fatalf("horizon = %g", s.Horizon())
	}
	mustAdd(t, s, 1, piecewise.FromPoly(poly.Linear(1, 0), 0, math.Inf(1)))
	mustAdd(t, s, 2, piecewise.FromPoly(poly.Linear(-1, 100), 0, math.Inf(1)))
	if err := s.AdvanceTo(1e6); err != nil {
		t.Fatal(err)
	}
	if got := s.Order(); got[0] != 2 {
		t.Fatalf("order %v", got)
	}
}

func TestEqualValueInsertOrdersBySignAfter(t *testing.T) {
	// Insert a curve exactly equal to an existing one at the insertion
	// instant but diverging below: it must be placed first.
	s := newTestSweeper(t, nil)
	mustAdd(t, s, 1, lineCurve(0, 5))
	if err := s.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	// id 2 has value 5 at t=2 but falls below immediately after.
	mustAdd(t, s, 2, piecewise.FromPoly(poly.Linear(-1, 7), 0, 1000))
	if got := s.Order(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("order %v, want the falling curve first", got)
	}
	if err := s.AuditOrder(); err != nil {
		t.Fatal(err)
	}
}
