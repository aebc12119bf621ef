package bead

// Tracks that grow, and walks that start at the window: a track
// extended update by update must be the track built from the final
// trajectory in every sample and bead, and the walks that binary-search
// their first bead must return what the walks from the first sample —
// kept here as the reference — return, counters included.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// refWithin is Track.within walking every bead from the first sample.
func refWithin(tr *Track, qcons []ball, lo, hi float64) ([]Interval, PWStats) {
	var st PWStats
	var out []Interval
	for i := 0; i < tr.numSegs(); i++ {
		s := tr.segAt(i)
		w0 := math.Max(s.t0, lo)
		w1 := math.Min(s.t1, hi)
		if !(w0 <= w1) {
			continue
		}
		st.Windows++
		if windowDisjoint(s.cons, qcons, w0, w1) {
			st.Pruned++
			continue
		}
		st.Kernel++
		cons := append(append([]ball{}, s.cons...), qcons...)
		a, b, ok := feasibleInterval(cons, w0, w1)
		if !ok {
			continue
		}
		if n := len(out); n > 0 && a <= out[n-1].Hi+1e-12*math.Max(1, math.Abs(a)) {
			if b > out[n-1].Hi {
				out[n-1].Hi = b
			}
			continue
		}
		out = append(out, Interval{Lo: a, Hi: b})
	}
	return out, st
}

// refAlibi is Alibi's merge started at the first bead of each chain.
func refAlibi(a, b *Track, lo, hi float64) Result {
	res := Result{}
	i, j := 0, 0
	for i < a.numSegs() && j < b.numSegs() {
		sa, sb := a.segAt(i), b.segAt(j)
		w0 := math.Max(math.Max(sa.t0, sb.t0), lo)
		if w0 > hi {
			break
		}
		w1 := math.Min(math.Min(sa.t1, sb.t1), hi)
		if w0 <= w1 {
			res.Checked++
			if windowDisjoint(sa.cons, sb.cons, w0, w1) {
				res.Pruned++
			} else {
				cons := append(append([]ball{}, sa.cons...), sb.cons...)
				if t0, _, ok := feasibleInterval(cons, w0, w1); ok {
					res.Possible = true
					res.At = t0
					return res
				}
			}
		}
		if sa.t1 <= sb.t1 {
			i++
		} else {
			j++
		}
	}
	return res
}

// randomTrajectory is an object's history as the database records it:
// `new` at t0, then legs-1 `chdir`s, then perhaps a `terminate`. It
// returns the trajectory after every update, oldest first.
func randomTrajectory(rng *rand.Rand, legs int, terminate bool) []trajectory.Trajectory {
	vec := func(s float64) geom.Vec { return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5)) }
	t := 5 * rng.Float64()
	tr := trajectory.Linear(t, vec(3), vec(20))
	states := []trajectory.Trajectory{tr}
	var err error
	for i := 1; i < legs; i++ {
		t += 0.1 + rng.Float64()
		if tr, err = tr.ChDir(t, vec(3)); err != nil {
			panic(err)
		}
		states = append(states, tr)
	}
	if terminate {
		if tr, err = tr.Terminate(t + 0.1 + rng.Float64()); err != nil {
			panic(err)
		}
		states = append(states, tr)
	}
	return states
}

// sameTrack reports how two tracks differ in any sample, bead or
// constraint bit, "" when they do not.
func sameTrack(got, want *Track) string {
	if got.dim != want.dim || got.live != want.live || math.Float64bits(got.vmax) != math.Float64bits(want.vmax) {
		return fmt.Sprintf("header (%d,%v,%v), want (%d,%v,%v)", got.dim, got.live, got.vmax, want.dim, want.live, want.vmax)
	}
	if len(got.samples) != len(want.samples) {
		return fmt.Sprintf("%d samples, want %d", len(got.samples), len(want.samples))
	}
	for i, s := range got.samples {
		if w := want.samples[i]; math.Float64bits(s.T) != math.Float64bits(w.T) || !sameBits(s.X, w.X) {
			return fmt.Sprintf("sample %d: %v, want %v", i, s, w)
		}
	}
	if got.numSegs() != want.numSegs() {
		return fmt.Sprintf("%d beads, want %d", got.numSegs(), want.numSegs())
	}
	for i := 0; i < got.numSegs(); i++ {
		g, w := got.segAt(i), want.segAt(i)
		same := math.Float64bits(g.t0) == math.Float64bits(w.t0) && math.Float64bits(g.t1) == math.Float64bits(w.t1) && len(g.cons) == len(w.cons)
		for k := 0; same && k < len(g.cons); k++ {
			same = sameBits(g.cons[k].c, w.cons[k].c) &&
				math.Float64bits(g.cons[k].ra) == math.Float64bits(w.cons[k].ra) &&
				math.Float64bits(g.cons[k].rb) == math.Float64bits(w.cons[k].rb)
		}
		if !same {
			return fmt.Sprintf("bead %d: %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// TestExtendedTrackIsTheBuiltTrack extends a track through every state
// of random histories — one update at a time, and in jumps of several —
// and holds each result, and its chain boxes, to FromTrajectory's.
func TestExtendedTrackIsTheBuiltTrack(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		states := randomTrajectory(rng, 1+rng.Intn(40), rng.Intn(2) == 0)
		vmax := []float64{0, 0.4, 2.5}[rng.Intn(3)] // below and above the recorded speeds
		tr, err := FromTrajectory(states[0], vmax)
		if err != nil {
			t.Fatal(err)
		}
		boxes := len(tr.ChainBoxes(0))
		for k := 1; k < len(states); k += 1 + rng.Intn(3) {
			next, ok := tr.Extend(states[k])
			if !ok {
				t.Fatalf("trial %d: state %d does not extend state before it", trial, k)
			}
			want, err := FromTrajectory(states[k], vmax)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameTrack(next, want); d != "" {
				t.Fatalf("trial %d state %d: extended track differs from built: %s", trial, k, d)
			}
			added, all := next.ChainBoxes(boxes), want.ChainBoxes(0)
			if len(added) != len(all)-boxes {
				t.Fatalf("trial %d state %d: %d new boxes, want %d", trial, k, len(added), len(all)-boxes)
			}
			for i, b := range added {
				w := all[boxes+i]
				if b.T0 != w.T0 || b.T1 != w.T1 || !sameBits(b.Min, w.Min) || !sameBits(b.Max, w.Max) {
					t.Fatalf("trial %d state %d: new box %d is %+v, want %+v", trial, k, i, b, w)
				}
			}
			tr, boxes = next, len(all)
		}
	}
}

// TestExtendRefusesWhatDoesNotContinue: a terminated track, a
// trajectory shorter than the track, and one whose shared last sample
// differs in time or place by one bit are all refused.
func TestExtendRefusesWhatDoesNotContinue(t *testing.T) {
	base := trajectory.Linear(1, geom.Of(1, 0), geom.Of(0, 0))
	turned, _ := base.ChDir(3, geom.Of(0, 1))
	live, err := FromTrajectory(turned, 2)
	if err != nil {
		t.Fatal(err)
	}
	ended, _ := turned.Terminate(5)
	dead, _ := FromTrajectory(ended, 2)
	if _, ok := dead.Extend(ended); ok {
		t.Error("a terminated track was extended")
	}
	if _, ok := live.Extend(base); ok {
		t.Error("a trajectory with fewer pieces than the track has samples was accepted")
	}
	later, _ := base.ChDir(math.Nextafter(3, 4), geom.Of(0, 1))
	if _, ok := live.Extend(later); ok {
		t.Error("a last sample one ulp later in time was accepted")
	}
	moved, _ := trajectory.Linear(1, geom.Of(1, 0), geom.Of(0, math.SmallestNonzeroFloat64)).ChDir(3, geom.Of(0, 1))
	if _, ok := live.Extend(moved); ok {
		t.Error("a last sample that moved was accepted")
	}
	if same, ok := live.Extend(turned); !ok || sameTrack(same, live) != "" {
		t.Error("the track's own trajectory does not extend it to itself")
	}
}

// TestExtendLeavesReadersAlone extends one track twice over — only the
// first extension may append in place — while readers walk the original
// and the first extension; under -race a write into memory a reader can
// see fails the run. Both extensions must equal the built track.
func TestExtendLeavesReadersAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	states := randomTrajectory(rng, 60, false)
	tracks := make([]*Track, len(states))
	var err error
	if tracks[0], err = FromTrajectory(states[0], 1.5); err != nil {
		t.Fatal(err)
	}
	q := geom.Of(0, 0)
	var readers sync.WaitGroup
	read := func(tr *Track) {
		defer readers.Done()
		for i := 0; i < 20; i++ {
			if _, _, err := tr.PossiblyWithinStats(q, 8, 0, 100); err != nil {
				t.Error(err)
			}
			_ = tr.Samples()
			_ = tr.ChainBoxes(0)
		}
	}
	for k := 1; k < len(states); k++ {
		readers.Add(1)
		go read(tracks[k-1])
		first, ok1 := tracks[k-1].Extend(states[k])
		second, ok2 := tracks[k-1].Extend(states[k])
		if !ok1 || !ok2 {
			t.Fatalf("state %d: extension refused", k)
		}
		want, _ := FromTrajectory(states[k], 1.5)
		if d := sameTrack(first, want); d != "" {
			t.Fatalf("state %d, first extension: %s", k, d)
		}
		if d := sameTrack(second, want); d != "" {
			t.Fatalf("state %d, second extension: %s", k, d)
		}
		tracks[k] = first
		readers.Add(1)
		go read(second)
	}
	readers.Wait()
	for k, tr := range tracks {
		want, _ := FromTrajectory(states[k], 1.5)
		if d := sameTrack(tr, want); d != "" {
			t.Fatalf("state %d changed after later extensions: %s", k, d)
		}
	}
}

// TestWalksFromTheWindowMatchLinearWalks: possibly-within intervals and
// PWStats, and alibi results with their Checked/Pruned counts, against
// the walks from the first sample, over windows of every position
// relative to the tracks (before, across, inside one bead, on sample
// instants, past a terminated end, into a live cap).
func TestWalksFromTheWindowMatchLinearWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	build := func() *Track {
		states := randomTrajectory(rng, 1+rng.Intn(60), rng.Intn(2) == 0)
		tr, err := FromTrajectory(states[len(states)-1], 0.3+2*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	instant := func(tr *Track) float64 {
		switch last := tr.samples[len(tr.samples)-1].T; rng.Intn(4) {
		case 0:
			return tr.samples[rng.Intn(len(tr.samples))].T
		case 1:
			return tr.Start() - 2 + 2*rng.Float64()
		case 2:
			return last + 3*rng.Float64()
		default:
			return tr.Start() + (last-tr.Start())*rng.Float64()
		}
	}
	pw, al := 0, 0
	for trial := 0; trial < 1500; trial++ {
		a, b := build(), build()
		if rng.Intn(10) == 0 {
			a = mustTrack(t, 1, false, s(3, 1, 1)) // one instant: the degenerate tail
		}
		for w := 0; w < 6; w++ {
			lo, hi := instant(a), instant(b)
			if lo > hi {
				lo, hi = hi, lo
			}
			q, dist := geom.Of(20*(rng.Float64()-0.5), 20*(rng.Float64()-0.5)), 6*rng.Float64()
			got, gst, err := a.PossiblyWithinStats(q, dist, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			want, wst := refWithin(a, []ball{{c: q, ra: 0, rb: dist}}, lo, hi)
			if gst != wst || !sameIntervals(got, want) {
				t.Fatalf("trial %d within [%v,%v]: %v %+v, linear walk %v %+v", trial, lo, hi, got, gst, want, wst)
			}
			pw++
			res, err := Alibi(a, b, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if ref := refAlibi(a, b, lo, hi); res.Possible != ref.Possible || math.Float64bits(res.At) != math.Float64bits(ref.At) ||
				res.Checked != ref.Checked || res.Pruned != ref.Pruned {
				t.Fatalf("trial %d alibi [%v,%v]: %+v, linear walk %+v", trial, lo, hi, res, ref)
			}
			al++
		}
	}
	t.Logf("%d possibly-within and %d alibi walks equal to the linear walks", pw, al)
}

func sameIntervals(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) || math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}

// TestFirstSegToIsTheSearch holds the walk start to the sort.Search it
// replaces, on every track shape the chain and tail take, at every
// sample time, one ulp either side of each, and before and after the
// track.
func TestFirstSegToIsTheSearch(t *testing.T) {
	tracks := map[string]*Track{
		"live":                   mustTrack(t, 1, true, s(-2, 0, 0), s(0, 1, 0), s(1.5, 1, 1), s(4, 0, 2)),
		"terminated":             mustTrack(t, 1, false, s(-2, 0, 0), s(0, 1, 0), s(1.5, 1, 1), s(4, 0, 2)),
		"one-sample live":        mustTrack(t, 1, true, s(3, 1, 1)),
		"one-sample terminated":  mustTrack(t, 1, false, s(3, 1, 1)),
		"two-sample terminated":  mustTrack(t, 1, false, s(0, 0, 0), s(1, 1, 0)),
		"live from a zero start": mustTrack(t, 1, true, s(0, 0, 0), s(1, 1, 0)),
	}
	for name, tr := range tracks {
		ref := func(x float64) int {
			return sort.Search(tr.numSegs(), func(i int) bool { return tr.segAt(i).t1 >= x })
		}
		times := []float64{math.Inf(-1), tr.Start() - 100, tr.samples[len(tr.samples)-1].T + 100, math.Inf(1), math.Copysign(0, -1)}
		for _, sm := range tr.samples {
			times = append(times, sm.T, math.Nextafter(sm.T, math.Inf(-1)), math.Nextafter(sm.T, math.Inf(1)))
		}
		for _, x := range times {
			if got, want := tr.firstSegTo(x), ref(x); got != want {
				t.Errorf("%s: firstSegTo(%v) = %d, sort.Search %d", name, x, got, want)
			}
		}
	}
}
