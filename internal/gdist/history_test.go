package gdist

// A curve costs what its window holds: the count that pins it, and the
// benchmark that shows it.

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/piecewise"
	"repro/internal/trajectory"
)

// unitHistory is a trajectory of n pieces with breaks at 1 … n-1.
func unitHistory(n int) trajectory.Trajectory {
	tr := trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	for i := 1; i < n; i++ {
		var err error
		if tr, err = tr.ChDir(float64(i), geom.Of(float64(i%3)-1, 1)); err != nil {
			panic(err)
		}
	}
	return tr
}

// TestCurveCostIgnoresHistory: a curve over a window that meets one or
// two pieces allocates as often as pinned here on a 4-piece and on a
// 4,000-piece trajectory, and a lower bound over it allocates nothing
// on either.
func TestCurveCostIgnoresHistory(t *testing.T) {
	g := PointSq{Point: geom.Of(3, -2)}
	for _, c := range []struct {
		pieces int
		before float64 // how far before the last break the window starts
		allocs float64
	}{
		{pieces: 2, before: 0.5, allocs: 51},
		{pieces: 1, before: -0.5, allocs: 27},
	} {
		for _, n := range []int{4, 4000} {
			tr := unitHistory(n)
			lo, hi := float64(n-1)-c.before, float64(n)+3
			f, err := g.Curve(tr, lo, hi)
			if err != nil || f.NumPieces() != c.pieces {
				t.Fatalf("%d pieces: curve of %d pieces, err %v; want %d pieces", n, f.NumPieces(), err, c.pieces)
			}
			if got := testing.AllocsPerRun(20, func() { _, _ = g.Curve(tr, lo, hi) }); got != c.allocs {
				t.Errorf("%d pieces: Curve over %d allocates %v times, want %v", n, c.pieces, got, c.allocs)
			}
			if got := testing.AllocsPerRun(20, func() { _, _ = g.LowerBound(tr, lo, hi) }); got != 0 {
				t.Errorf("%d pieces: LowerBound allocates %v times", n, got)
			}
		}
	}
}

var sinkCurve piecewise.Func

// BenchmarkCurveLongHistory builds the k-NN sweep's curve over a window
// that meets the last two pieces of a short and of a long history.
func BenchmarkCurveLongHistory(b *testing.B) {
	g := PointSq{Point: geom.Of(3, -2)}
	for _, n := range []int{4, 4000} {
		tr := unitHistory(n)
		lo, hi := float64(n)-1.5, float64(n)+3
		b.Run(fmt.Sprintf("pieces=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := g.Curve(tr, lo, hi)
				if err != nil {
					b.Fatal(err)
				}
				sinkCurve = f
			}
		})
	}
}
