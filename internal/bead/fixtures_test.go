package bead

// Table-driven edge-case fixtures for the uncertainty geometry. Every
// fixture is planted at dyadic coordinates so the certified oracle's
// bisection can actually land on the witness, and every fixture is
// asserted against BOTH deciders: the exact kernel answer must match
// the planted expectation, and the oracle must not contradict it
// (Unresolved is the only escape, and these fixtures are easy enough
// that it would be a bug too).

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func mustTrack(t *testing.T, vmax float64, live bool, samples ...Sample) *Track {
	t.Helper()
	tr, err := NewTrack(vmax, live, samples)
	if err != nil {
		t.Fatalf("NewTrack: %v", err)
	}
	return tr
}

func s(t float64, cs ...float64) Sample { return Sample{T: t, X: geom.Of(cs...)} }

func TestAlibiFixtures(t *testing.T) {
	cases := []struct {
		name         string
		a, b         func(t *testing.T) *Track
		lo, hi       float64
		wantPossible bool
		wantAt       float64 // asserted when possible and ≥ lo
	}{
		{
			// Two zero-speed objects parked on the same spot: they
			// "meet" the entire time.
			name: "zero speed same point",
			a:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 1, 1), s(8, 1, 1)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 1, 1), s(8, 1, 1)) },
			lo:   2, hi: 6, wantPossible: true, wantAt: 2,
		},
		{
			// Parked apart: a proof of alibi with zero uncertainty.
			name: "zero speed apart",
			a:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 0, 0), s(8, 0, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 4, 0), s(8, 4, 0)) },
			lo:   0, hi: 8, wantPossible: false,
		},
		{
			// Coincident consecutive sample positions (stationary leg)
			// still spawn a full lens of uncertainty between them; the
			// prowler's lens reaches the parked object's spot exactly
			// at the lens midpoint t = 2 — a single-instant tangency.
			name: "lens tangent to point at one instant",
			a:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 2, 0), s(4, 2, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 1, false, s(0, 4, 0), s(4, 4, 0)) },
			lo:   0, hi: 4, wantPossible: true, wantAt: 2,
		},
		{
			// Same geometry, window sliced to exclude the tangency
			// instant: alibi holds.
			name: "tangent instant outside window",
			a:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 2, 0), s(4, 2, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 1, false, s(0, 4, 0), s(4, 4, 0)) },
			lo:   0, hi: 1.5, wantPossible: false,
		},
		{
			// cap/cap: two live objects released 8 apart with unit
			// speed bounds; their caps (growing cones) touch at t = 4.
			name: "caps tangent",
			a:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 0, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 8, 0)) },
			lo:   0, hi: 10, wantPossible: true, wantAt: 4,
		},
		{
			name: "caps cannot reach in window",
			a:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 0, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 8, 0)) },
			lo:   0, hi: 3.5, wantPossible: false,
		},
		{
			// Window ending exactly at the cap tangency: touching at
			// the last representable instant still counts.
			name: "caps tangent at window edge",
			a:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 0, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 8, 0)) },
			lo:   0, hi: 4, wantPossible: true, wantAt: 4,
		},
		{
			// cap/chain: a live roamer released at (8, 6) with v = 1
			// vs a recorded commuter from (0, 0) to (8, 0) with
			// generous bound v = 2. The binding pair is the roamer's
			// cone against the commuter's growing start-ball:
			// t + 2t ≥ ‖(8,6)‖ = 10, so first contact at t = 10/3 —
			// and the candidate point (16/3, 4) is comfortably inside
			// the commuter's terminal ball, so the pair bound is tight.
			name: "cap meets chain",
			a:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 8, 6)) },
			b: func(t *testing.T) *Track {
				return mustTrack(t, 2, false, s(0, 0, 0), s(8, 8, 0))
			},
			lo: 0, hi: 8, wantPossible: true, wantAt: 10.0 / 3,
		},
		{
			// chain/chain crossing: two recorded walkers whose paths
			// cross in space and time — trivially possible, and the
			// earliest contact is the window start only if uncertainty
			// lets them detour toward each other immediately. With
			// vmax equal to the required speed the beads are exact
			// segments: possible exactly at the crossing instant.
			name: "exact segments cross",
			a: func(t *testing.T) *Track {
				return mustTrack(t, 1, false, s(0, 0, 0), s(8, 8, 0))
			},
			b: func(t *testing.T) *Track {
				return mustTrack(t, 1, false, s(0, 8, 0), s(8, 0, 0))
			},
			lo: 0, hi: 8, wantPossible: true, wantAt: 4,
		},
		{
			// Same two walkers but generous speed bounds: the beads
			// fatten and the earliest possible meeting moves up from
			// the crossing instant t = 4 to t = 4/3, when the growing
			// radius-3t spheres around the two start points first
			// touch (3t + 3t ≥ 8); the terminal balls are still huge
			// then, so the start-ball tangency is the binding pair.
			name: "fat beads meet early",
			a: func(t *testing.T) *Track {
				return mustTrack(t, 3, false, s(0, 0, 0), s(8, 8, 0))
			},
			b: func(t *testing.T) *Track {
				return mustTrack(t, 3, false, s(0, 8, 0), s(8, 0, 0))
			},
			lo: 0, hi: 8, wantPossible: true, wantAt: 4.0 / 3,
		},
		{
			// Disjoint lifetimes: b starts after a terminates. The
			// merge walk finds no overlapping window at all.
			name: "disjoint lifetimes",
			a:    func(t *testing.T) *Track { return mustTrack(t, 5, false, s(0, 0, 0), s(2, 1, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 5, false, s(3, 0, 0), s(6, 1, 0)) },
			lo:   0, hi: 10, wantPossible: false,
		},
		{
			// Single-sample terminated track: the object existed at
			// exactly one instant. A meeting requires the other bead
			// to cover that point at that instant.
			name: "point object covered",
			a:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(2, 1, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 0, 0)) },
			lo:   0, hi: 4, wantPossible: true, wantAt: 2,
		},
		{
			name: "point object out of reach",
			a:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(2, 4, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 0, 0)) },
			lo:   0, hi: 4, wantPossible: false,
		},
		{
			// Declared bound too small for the recorded leg: v_eff
			// kicks in (leg needs speed 2, declared 0) and the track
			// behaves like an exact segment — it must at least meet
			// itself... here, meet a parked observer sitting on the
			// segment midpoint.
			name: "conservative declaration still reachable",
			a:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 0, 0), s(4, 8, 0)) },
			b:    func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 4, 0), s(4, 4, 0)) },
			lo:   0, hi: 4, wantPossible: true, wantAt: 2,
		},
	}
	o := NewOracle()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.a(t), tc.b(t)
			res, err := Alibi(a, b, tc.lo, tc.hi)
			if err != nil {
				t.Fatalf("Alibi: %v", err)
			}
			if res.Possible != tc.wantPossible {
				t.Fatalf("Alibi possible = %v, want %v (%+v)", res.Possible, tc.wantPossible, res)
			}
			if tc.wantPossible && math.Abs(res.At-tc.wantAt) > 1e-6 {
				t.Fatalf("earliest meeting at %g, want %g", res.At, tc.wantAt)
			}
			// Symmetry: the alibi question does not order its objects.
			rev, err := Alibi(b, a, tc.lo, tc.hi)
			if err != nil {
				t.Fatalf("Alibi reversed: %v", err)
			}
			if rev.Possible != res.Possible || (res.Possible && math.Abs(rev.At-res.At) > 1e-9) {
				t.Fatalf("asymmetric alibi: %+v vs %+v", res, rev)
			}
			// The dumb oracle must agree (its band is far wider than
			// the kernel's epsilon, and these fixtures are planted on
			// dyadic coordinates it can bisect onto).
			switch v := o.Alibi(a, b, tc.lo, tc.hi); v {
			case Possible:
				if !tc.wantPossible {
					t.Fatalf("oracle found a witness for a planted alibi")
				}
			case Impossible:
				if tc.wantPossible {
					t.Fatalf("oracle certified impossibility of a planted meeting")
				}
			case Unresolved:
				t.Fatalf("oracle unresolved on an easy planted fixture")
			}
		})
	}
}

func TestPossiblyWithinFixtures(t *testing.T) {
	o := NewOracle()
	type want struct{ lo, hi float64 }
	cases := []struct {
		name   string
		tr     func(t *testing.T) *Track
		q      geom.Vec
		dist   float64
		lo, hi float64
		want   []want
	}{
		{
			// Cap tangency: released at the origin with v = 1, the
			// ball of possible positions touches the sphere around
			// (3, 0) of radius 1 exactly at t = 2 and stays inside
			// range afterwards.
			name: "cap reaches query sphere",
			tr:   func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 0, 0)) },
			q:    geom.Of(3, 0), dist: 1, lo: 0, hi: 8,
			want: []want{{2, 8}},
		},
		{
			name: "zero speed parked in range",
			tr:   func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 1, 0), s(8, 1, 0)) },
			q:    geom.Of(1, 2), dist: 2, lo: 2, hi: 6,
			want: []want{{2, 6}},
		},
		{
			name: "zero speed parked out of range",
			tr:   func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 1, 0), s(8, 1, 0)) },
			q:    geom.Of(1, 4), dist: 2, lo: 0, hi: 8,
			want: nil,
		},
		{
			// Exact tangency from outside: parked at distance exactly
			// dist — a measure-zero touching that must be the full
			// window, not nothing.
			name: "parked exactly on the sphere",
			tr:   func(t *testing.T) *Track { return mustTrack(t, 0, false, s(0, 2, 0), s(4, 2, 0)) },
			q:    geom.Of(4, 0), dist: 2, lo: 0, hi: 4,
			want: []want{{0, 4}},
		},
		{
			// A commuter passing through: the exact segment from
			// (0,0) to (8,0) is within 1 of (4, 1) for x ∈ [4−?, 4+?]:
			// the sphere cuts the line where (x−4)² + 1 ≤ 1 → x = 4
			// only: single-instant touch at t = 4.
			name: "segment grazes sphere",
			tr: func(t *testing.T) *Track {
				return mustTrack(t, 1, false, s(0, 0, 0), s(8, 8, 0))
			},
			q: geom.Of(4, 1), dist: 1, lo: 0, hi: 8,
			want: []want{{4, 4}},
		},
		{
			// Two legs, query near the knee: the answer spans the
			// sample boundary and must come back as ONE merged
			// interval, not two abutting at t = 4.
			name: "interval merges across knee",
			tr: func(t *testing.T) *Track {
				return mustTrack(t, 1, false, s(0, 0, 0), s(4, 4, 0), s(8, 4, 4))
			},
			q: geom.Of(4, 0), dist: 2, lo: 0, hi: 8,
			want: []want{{2, 6}},
		},
		{
			// Window clipped inside the feasible span.
			name: "window clips answer",
			tr:   func(t *testing.T) *Track { return mustTrack(t, 1, true, s(0, 0, 0)) },
			q:    geom.Of(3, 0), dist: 1, lo: 4, hi: 6,
			want: []want{{4, 6}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr(t)
			got, _, err := tr.PossiblyWithinStats(tc.q, tc.dist, tc.lo, tc.hi)
			if err != nil {
				t.Fatalf("PossiblyWithin: %v", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d intervals %v, want %d", len(got), got, len(tc.want))
			}
			for i := range got {
				if math.Abs(got[i].Lo-tc.want[i].lo) > 1e-6 || math.Abs(got[i].Hi-tc.want[i].hi) > 1e-6 {
					t.Fatalf("interval %d = [%g, %g], want [%g, %g]",
						i, got[i].Lo, got[i].Hi, tc.want[i].lo, tc.want[i].hi)
				}
			}
			// Oracle agreement on the yes/no question over the window.
			wantAny := len(tc.want) > 0
			switch v := o.PossiblyWithin(tr, tc.q, tc.dist, tc.lo, tc.hi); v {
			case Possible:
				if !wantAny {
					t.Fatal("oracle found a witness where none was planted")
				}
			case Impossible:
				if wantAny {
					t.Fatal("oracle certified impossibility of a planted contact")
				}
			case Unresolved:
				t.Fatal("oracle unresolved on an easy planted fixture")
			}
		})
	}
}
