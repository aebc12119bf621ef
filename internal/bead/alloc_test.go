package bead

// Allocation ceilings of the kernel walk. They are counts, so they hold
// on any machine and under any load — unlike a timing — and they are
// what the possibly-within request's cost hangs on: a query evaluates
// thousands of windows.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestFeasibleIntervalAllocatesNothing: within the scratch bounds (up
// to four balls in up to three dimensions — every window the two
// queries build) the kernel works on its stack alone, whichever path a
// system takes: both ends feasible, the outside-in scan, pinch quartics.
func TestFeasibleIntervalAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for s := 0; s < 1500; s++ {
		n, dim := 2+s%3, 1+(s/3)%3
		cons, w0, w1, _ := genSystem(rng, n, dim)
		if allocs := testing.AllocsPerRun(1, func() { feasibleInterval(cons, w0, w1) }); allocs != 0 {
			t.Fatalf("system %d (n=%d dim=%d) %+v over [%g, %g]: %v allocations", s, n, dim, cons, w0, w1, allocs)
		}
	}
}

// zigzag is a track that crosses the x axis at every sample.
func zigzag(t *testing.T, samples int, live bool) *Track {
	t.Helper()
	ss := make([]Sample, samples)
	for i := range ss {
		ss[i] = Sample{T: float64(i), X: geom.Of(float64(i), float64(i%2*4-2))}
	}
	tr, err := NewTrack(5, live, ss)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPossiblyWithinAllocatesOnlyItsResult: walking a chain against a
// query ball allocates the interval list it returns — one allocation
// each time append doubles it — and nothing per window: no bead chain,
// no constraint slice, no copy of the query point.
func TestPossiblyWithinAllocatesOnlyItsResult(t *testing.T) {
	tr := zigzag(t, 200, true)
	doublings := func(n int) (d float64) {
		for c := 0; c < n; c = max(1, 2*c) {
			d++
		}
		return d
	}
	for _, tc := range []struct {
		name string
		q    geom.Vec
		dist float64
	}{
		{"far", geom.Of(0, 1e6), 1},
		{"few intervals", geom.Of(100, 0), 50},
		{"many intervals", geom.Of(100, 300), 300.002},
	} {
		var ivs []Interval
		var st PWStats
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if ivs, st, err = tr.PossiblyWithinStats(tc.q, tc.dist, 0, 1000); err != nil {
				t.Fatal(err)
			}
		})
		if st.Windows != 200 || (tc.name == "far") != (len(ivs) == 0) || (len(ivs) > 0 && st.Kernel == 0) {
			t.Errorf("%s: %d intervals, stats %+v", tc.name, len(ivs), st)
		}
		if allocs != doublings(len(ivs)) {
			t.Errorf("%s: %v allocations for %d intervals, want %v", tc.name, allocs, len(ivs), doublings(len(ivs)))
		}
		// The prepared form a query over many tracks uses appends to
		// the list it is handed: the same cost from nil, nothing once
		// the list has room, and nothing ahead of the appended run is
		// read or merged into.
		within, err := Within(2, tc.q, tc.dist, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() { within(tr, nil) }); allocs != doublings(len(ivs)) {
			t.Errorf("%s: Within(...)(track, nil): %v allocations, want %v", tc.name, allocs, doublings(len(ivs)))
		}
		before := Interval{Lo: -1, Hi: 1e9} // would swallow any interval merged into it
		dst := append(make([]Interval, 0, 1+len(ivs)), before)
		var got []Interval
		if allocs := testing.AllocsPerRun(10, func() { got, _ = within(tr, dst) }); allocs != 0 {
			t.Errorf("%s: Within(...)(track, roomy): %v allocations, want 0", tc.name, allocs)
		}
		if got[0] != before || !sameIntervals(got[1:], ivs) {
			t.Errorf("%s: appended after %v: %v, want %v", tc.name, before, got, ivs)
		}
	}
}

// TestAlibiAllocatesNothing: the merge-walk over two cached chains.
func TestAlibiAllocatesNothing(t *testing.T) {
	a, b := zigzag(t, 200, true), zigzag(t, 150, false)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := Alibi(a, b, 0, 1000); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Alibi: %v allocations, want 0", allocs)
	}
}

// BenchmarkFeasibleInterval times the kernel on a fixed mix of
// generated three- and four-ball systems, and on the two-ball windows
// of a live cap against a query ball, the bulk of a possibly-within
// query's kernel calls. Each call sets its window up as the chain walks
// do.
func BenchmarkFeasibleInterval(b *testing.B) {
	type system struct {
		a, q   []ball
		w0, w1 float64
	}
	run := func(b *testing.B, systems []system) {
		var scratch windowScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := systems[i%len(systems)]
			w := scratch.window(s.a, s.q, consScale(s.q, s.w0, s.w1), s.w0, s.w1)
			w.interval()
		}
	}
	b.Run("3-4 balls", func(b *testing.B) {
		rng := rand.New(rand.NewSource(31))
		systems := make([]system, 512)
		for s := range systems {
			cons, w0, w1, _ := genSystem(rng, 3+s%2, 2+s%2)
			systems[s] = system{a: cons, w0: w0, w1: w1}
		}
		run(b, systems)
	})
	b.Run("cap+query", func(b *testing.B) {
		// Caps opened at a last sample in [0, 10] with speed bounds up
		// to 15, asked of radius-100 balls over ten-second windows; the
		// ones the broad-phase test prunes never reach the kernel.
		rng := rand.New(rand.NewSource(37))
		systems := make([]system, 0, 512)
		for len(systems) < cap(systems) {
			T, v := 10*rng.Float64(), 1+14*rng.Float64()
			c := geom.Of(1000*rng.Float64(), 1000*rng.Float64())
			q := []ball{{c: geom.Of(1000*rng.Float64(), 1000*rng.Float64()), ra: 0, rb: 100}}
			hi := 10 + 40*rng.Float64()
			s := system{a: []ball{{c: c, ra: v, rb: -v * T}}, q: q, w0: math.Max(T, hi-10), w1: hi}
			if !windowDisjoint(s.a, s.q, s.w0, s.w1) {
				systems = append(systems, s)
			}
		}
		run(b, systems)
	})
}
