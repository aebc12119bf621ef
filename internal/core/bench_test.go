package core

import (
	"fmt"
	"testing"

	"repro/internal/piecewise"
	"repro/internal/poly"
)

// zigzagCurve builds a triangular wave for mover i: period 16+i,
// amplitude amp, vertical offset i*1e-3 to break exact multi-way ties.
// Distinct periods make every pair of movers cross repeatedly across the
// whole domain, so the sweep keeps processing swap events at a steady
// rate no matter how far it advances.
func zigzagCurve(i int, amp, lo, hi float64) piecewise.Func {
	period := float64(16 + i)
	slope := 2 * amp / period
	off := float64(i) * 1e-3
	var pieces []piecewise.Piece
	for start := lo; start < hi; start += period {
		mid := start + period/2
		end := start + period
		if mid > hi {
			mid = hi
		}
		if end > hi {
			end = hi
		}
		// Rising edge: 0 -> amp over [start, mid].
		pieces = append(pieces, piecewise.Piece{
			Start: start, End: mid,
			P: poly.Linear(slope, off-slope*start),
		})
		if end > mid {
			// Falling edge: amp -> 0 over [mid, end].
			pieces = append(pieces, piecewise.Piece{
				Start: mid, End: end,
				P: poly.Linear(-slope, off+slope*end),
			})
		}
	}
	return piecewise.MustNew(pieces...)
}

func benchSweeper(tb testing.TB, n int, horizon float64) *Sweeper {
	tb.Helper()
	s := NewSweeper(Config{Start: 0, Horizon: horizon})
	for i := 0; i < n; i++ {
		if err := s.AddCurve(uint64(i+1), zigzagCurve(i, float64(n), 0, horizon)); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// warmSweeper is benchSweeper advanced to t=64, past the growth phase:
// the pair-diff cache, the event queue and the scratch storage are at
// capacity from there on.
func warmSweeper(t *testing.T) *Sweeper {
	t.Helper()
	s := benchSweeper(t, 64, 1<<14)
	if err := s.AdvanceTo(64); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdvanceToAllocatesNothing: a steady-state advance over 64 movers
// that keep crossing processes swap events and reschedules, and
// allocates nothing doing it. A count, so it holds on any machine.
func TestAdvanceToAllocatesNothing(t *testing.T) {
	s := warmSweeper(t)
	now := s.Now()
	var err error
	allocs := testing.AllocsPerRun(2000, func() {
		now += 0.25
		if e := s.AdvanceTo(now); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("AdvanceTo: %v allocations per call, want 0", allocs)
	}
	if s.Stats().Swaps == 0 {
		t.Fatal("the advances processed no swap")
	}
}

// TestReplaceCurveAllocatesNothing: replacing a curve (the exported
// operation that drives schedulePair for both new neighbours) allocates
// nothing once the sweep is warm.
func TestReplaceCurveAllocatesNothing(t *testing.T) {
	s := warmSweeper(t)
	curve := zigzagCurve(0, 64, 0, 1<<14)
	var err error
	allocs := testing.AllocsPerRun(2000, func() {
		if e := s.ReplaceCurve(1, curve); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("ReplaceCurve: %v allocations per call, want 0", allocs)
	}
}

// BenchmarkAdvanceTo measures the steady-state sweep: n zigzag movers
// crossing continually, the clock advanced in small increments so every
// iteration processes a realistic trickle of swap events. That each
// advance allocates nothing after warmup is TestAdvanceToAllocatesNothing's
// to fail on; a benchmark fails on nothing.
func BenchmarkAdvanceTo(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("movers=%d", n), func(b *testing.B) {
			const horizon = 1 << 14
			const step = 0.25
			s := benchSweeper(b, n, horizon)
			// Warm the caches past the initial growth phase.
			if err := s.AdvanceTo(64); err != nil {
				b.Fatal(err)
			}
			now := s.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += step
				if now >= horizon-1 {
					b.StopTimer()
					s = benchSweeper(b, n, horizon)
					if err := s.AdvanceTo(64); err != nil {
						b.Fatal(err)
					}
					now = s.Now() + step
					b.StartTimer()
				}
				if err := s.AdvanceTo(now); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Stats().Swaps)/float64(b.N), "swaps/op")
		})
	}
}

// BenchmarkSchedulePair isolates the adjacency re-scheduling primitive:
// one pair re-queried at an advancing time, exactly as the sweep does
// after each swap. Steady state is allocation-free — the pair-diff
// cache answers every repeat query from recycled storage;
// TestReplaceCurveAllocatesNothing holds it there.
func BenchmarkSchedulePair(b *testing.B) {
	const horizon = 1 << 14
	s := benchSweeper(b, 2, horizon)
	after := 1.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.schedulePair(1, 2, after)
		after += 0.25
		if after >= horizon-1 {
			after = 1.0
		}
	}
}
