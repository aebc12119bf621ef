package trajectory

// ChDir and Terminate against the piece-by-piece loop they replaced,
// and what they allocate.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refUpTo is the loop ChDir and Terminate used to grow their result
// with: every piece that ends by tau, then the piece holding tau cut
// short there.
func refUpTo(tr Trajectory, tau float64) []Piece {
	var pieces []Piece
	for _, pc := range tr.pieces {
		if pc.End <= tau {
			pieces = append(pieces, pc)
			continue
		}
		if pc.Start < tau {
			pieces = append(pieces, Piece{Start: pc.Start, End: tau, A: pc.A, B: pc.B})
		}
		break
	}
	return pieces
}

// history is a trajectory of n pieces with breaks at 1, 2, …, n-1.
func history(n int) Trajectory {
	tr := Linear(0, geom.Of(1, 0), geom.Of(0, 0))
	for i := 1; i < n; i++ {
		var err error
		if tr, err = tr.ChDir(float64(i), geom.Of(float64(i%3), 1)); err != nil {
			panic(err)
		}
	}
	return tr
}

func TestUpdatesMatchPieceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		tr := history(n)
		if rng.Intn(3) == 0 {
			tr, _ = tr.Terminate(float64(n) - 0.5)
		}
		// On a break, inside a piece, at either end of the domain, past it.
		tau := float64(rng.Intn(n+1)) + []float64{0, 0, 0.5, 0.25}[rng.Intn(4)]
		a := geom.Of(rng.Float64(), -1)

		got, err := tr.ChDir(tau, a)
		if tr.DefinedAt(tau) != (err == nil) {
			t.Fatalf("ChDir(%v) on %v: err %v", tau, tr, err)
		}
		if err == nil {
			want := Trajectory{pieces: append(refUpTo(tr, tau), Piece{Start: tau, End: math.Inf(1), A: a, B: tr.MustAt(tau)})}
			if !got.Equal(want) {
				t.Fatalf("ChDir(%v) on %v:\n got %v\nwant %v", tau, tr, got, want)
			}
		}
		got, err = tr.Terminate(tau)
		if (tr.DefinedAt(tau) && tau > tr.Start()) != (err == nil) {
			t.Fatalf("Terminate(%v) on %v: err %v", tau, tr, err)
		}
		if err == nil && !got.Equal(Trajectory{pieces: refUpTo(tr, tau)}) {
			t.Fatalf("Terminate(%v) on %v: got %v", tau, tr, got)
		}
	}
}

// TestUpdatesAllocateOnce: an update allocates the new piece list once,
// sized from the index of the piece holding tau — plus, for ChDir, the
// position at tau and the copy of the velocity — whatever the number of
// pieces.
func TestUpdatesAllocateOnce(t *testing.T) {
	a := geom.Of(0, 1)
	for _, n := range []int{4, 4000} {
		tr := history(n)
		tau := float64(n) + 0.5
		if got := testing.AllocsPerRun(20, func() { _, _ = tr.ChDir(tau, a) }); got > 3 {
			t.Errorf("ChDir on %d pieces: %v allocations, want at most 3", n, got)
		}
		if got := testing.AllocsPerRun(20, func() { _, _ = tr.Terminate(tau) }); got > 1 {
			t.Errorf("Terminate on %d pieces: %v allocations, want at most 1", n, got)
		}
	}
}
