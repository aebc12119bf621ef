// Package collide implements proximity/collision discovery — the paper's
// Section 2 names "collision discovery" as a central MOD application.
// Given a moving object database, a radius r and a window [lo, hi], it
// reports every pair of objects that comes within distance r, with the
// exact time intervals of each encounter.
//
// The computation is two-phase:
//
//   - broad phase: time is cut into slabs; each object's swept extent per
//     slab (an axis-aligned box around its piecewise-linear motion) is
//     indexed in an R-tree (internal/rtree), and only box-overlapping
//     pairs survive — O(N log N) per slab instead of all N^2 pairs;
//   - narrow phase: for each candidate pair the squared-distance curve
//     (a piecewise quadratic, internal/gdist) is compared against r^2 by
//     exact root finding, yielding the encounter intervals.
//
// The narrow phase is exact; the broad phase is conservative (a box
// overlap is necessary for an encounter within the slab), so no
// encounter is missed.
package collide

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cql"
	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/poly"
	"repro/internal/rtree"
	"repro/internal/trajectory"
)

// Encounter is one proximity event: the pair was within the radius
// during each span.
type Encounter struct {
	A, B  mod.OID // A < B
	Spans []cql.Span
}

// Config tunes detection.
type Config struct {
	// Radius is the proximity threshold (Euclidean).
	Radius float64
	// SlabDuration is the broad-phase time-slab length; 0 picks
	// (hi-lo)/8.
	SlabDuration float64
	// Fanout configures the R-tree.
	Fanout int
}

// Stats reports the work split between phases.
type Stats struct {
	Slabs          int
	CandidatePairs int // pairs surviving the broad phase (deduplicated)
	CheckedPairs   int // narrow-phase curve comparisons
	Encounters     int
}

// Detect finds all encounters within [lo, hi].
func Detect(db *mod.DB, cfg Config, lo, hi float64) ([]Encounter, Stats, error) {
	var st Stats
	if cfg.Radius <= 0 {
		return nil, st, errors.New("collide: radius must be positive")
	}
	if !(lo < hi) {
		return nil, st, fmt.Errorf("collide: bad window [%g,%g]", lo, hi)
	}
	slab := cfg.SlabDuration
	if slab <= 0 {
		slab = (hi - lo) / 8
	}
	trajs := db.Trajectories()
	type pairKey struct{ a, b mod.OID }
	candidates := map[pairKey]bool{}
	for s := lo; s < hi; s += slab {
		e := math.Min(s+slab, hi)
		items, err := sweptBoxes(trajs, s, e, cfg.Radius/2)
		if err != nil {
			return nil, st, err
		}
		st.Slabs++
		if err := broadPhase(items, db.Dim(), cfg.Fanout, func(a, b uint64) {
			k := pairKey{mod.OID(a), mod.OID(b)}
			if k.a > k.b {
				k.a, k.b = k.b, k.a
			}
			candidates[k] = true
		}); err != nil {
			return nil, st, err
		}
	}
	st.CandidatePairs = len(candidates)
	keys := make([]pairKey, 0, len(candidates))
	for k := range candidates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	var out []Encounter
	r2 := cfg.Radius * cfg.Radius
	for _, k := range keys {
		st.CheckedPairs++
		spans, err := encounterSpans(trajs[k.a], trajs[k.b], r2, lo, hi)
		if err != nil {
			return nil, st, err
		}
		if len(spans) > 0 {
			out = append(out, Encounter{A: k.a, B: k.b, Spans: spans})
			st.Encounters++
		}
	}
	return out, st, nil
}

// sweptBoxes computes, per live object, the center of its swept
// axis-aligned extent over [s, e] expanded by pad, as an R-tree point
// with the box radius folded into the broad-phase distance test.
//
// We index box centers and keep the max half-extent; two objects can
// only meet when their centers are within (halfA + halfB + radius), so a
// radius search with the global maximum half-extent is conservative.
func sweptBoxes(trajs map[mod.OID]trajectory.Trajectory, s, e, pad float64) ([]boxItem, error) {
	var items []boxItem
	for o, tr := range trajs {
		if !tr.IsDefined() || tr.End() <= s || tr.Start() >= e {
			continue
		}
		a := math.Max(tr.Start(), s)
		b := math.Min(tr.End(), e)
		lo := tr.MustAt(a).Clone()
		hi := tr.MustAt(a).Clone()
		extend := func(p geom.Vec) {
			for i := range p {
				if p[i] < lo[i] {
					lo[i] = p[i]
				}
				if p[i] > hi[i] {
					hi[i] = p[i]
				}
			}
		}
		extend(tr.MustAt(b))
		for _, brk := range tr.Breaks() {
			if brk > a && brk < b {
				extend(tr.MustAt(brk))
			}
		}
		center := lo.Lerp(hi, 0.5)
		half := 0.0
		for i := range lo {
			half = math.Max(half, (hi[i]-lo[i])/2)
		}
		items = append(items, boxItem{oid: uint64(o), center: center, half: half + pad})
	}
	return items, nil
}

type boxItem struct {
	oid    uint64
	center geom.Vec
	half   float64
}

// broadPhase reports all pairs whose conservative extents can touch.
func broadPhase(items []boxItem, dim, fanout int, emit func(a, b uint64)) error {
	if len(items) < 2 {
		return nil
	}
	pts := make([]rtree.RectItem, len(items))
	maxHalf := 0.0
	for i, it := range items {
		pts[i] = rtree.RectItem{ID: it.oid, R: rtree.Rect{Min: it.center, Max: it.center}}
		if it.half > maxHalf {
			maxHalf = it.half
		}
	}
	tree, err := rtree.BulkRects(pts, dim, fanout)
	if err != nil {
		return err
	}
	// Centers within halfA + halfB can touch; bound by 2*maxHalf and
	// refine per pair. The sqrt(dim) factor covers corner-to-corner
	// box contact in the L2 center distance.
	slack := 2 * maxHalf * math.Sqrt(float64(dim))
	for _, it := range items {
		for _, hit := range tree.SearchRadius(it.center, slack) {
			if hit.ID <= it.oid {
				continue
			}
			emit(it.oid, hit.ID)
		}
	}
	return nil
}

// encounterSpans solves dist^2(a, b) <= r2 exactly over the window.
func encounterSpans(a, b trajectory.Trajectory, r2, lo, hi float64) ([]cql.Span, error) {
	if !a.IsDefined() || !b.IsDefined() {
		return nil, nil
	}
	d := gdist.EuclideanSq{Query: b}
	curve, err := d.Curve(a, lo, hi)
	if err != nil {
		if errors.Is(err, gdist.ErrWindow) {
			return nil, nil
		}
		return nil, err
	}
	clo, chi := curve.Domain()
	set, err := cql.SolvePiecewiseLE(curve.AddPoly(negPoly(r2)), clo, chi)
	if err != nil {
		return nil, err
	}
	return set.Spans(), nil
}

// negPoly builds the constant polynomial -c.
func negPoly(c float64) poly.Poly { return poly.Constant(-c) }
