package query

// The run form of a finished AnswerSet against the map form it
// replaced: refMergeDisjoint is MergeDisjoint as it was — a map of the
// union, filled part by part — kept as the reference the linear merge
// is held to, over sets born whole, swept and merged.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bead"
	"repro/internal/mod"
)

// refMergeDisjoint is the map-based MergeDisjoint: the result is left
// in accumulating form, its closed map keyed by object.
func refMergeDisjoint(sets ...*AnswerSet) *AnswerSet {
	out := &AnswerSet{closed: make(map[mod.OID][]Interval), open: make(map[mod.OID]float64)}
	for _, s := range sets {
		if s == nil {
			continue
		}
		if len(s.open) > 0 {
			panic("query: MergeDisjoint on a non-finalized answer set")
		}
		for _, o := range s.Objects() {
			if _, dup := out.closed[o]; dup {
				panic(fmt.Sprintf("query: MergeDisjoint: %s in more than one part", o))
			}
			out.closed[o] = s.Intervals(o)
		}
		if s.done {
			out.done = true
			if s.endT > out.endT {
				out.endT = s.endT
			}
		}
	}
	return out
}

// sameRun reports how the runs of two sets differ, bit for bit ("" if
// they do not).
func sameRun(a, b *AnswerSet) string {
	ao, af, ai := a.Run()
	bo, bf, bi := b.Run()
	if !slices.Equal(ao, bo) || !slices.Equal(af, bf) {
		return fmt.Sprintf("objects %v offsets %v vs objects %v offsets %v", ao, af, bo, bf)
	}
	for k := range ai {
		if math.Float64bits(ai[k].Lo) != math.Float64bits(bi[k].Lo) || math.Float64bits(ai[k].Hi) != math.Float64bits(bi[k].Hi) {
			return fmt.Sprintf("interval %d: %v vs %v", k, ai[k], bi[k])
		}
	}
	if a.done != b.done || math.Float64bits(a.endT) != math.Float64bits(b.endT) {
		return fmt.Sprintf("finished %v at %v vs %v at %v", a.done, a.endT, b.done, b.endT)
	}
	return ""
}

// edgeOIDs covers every decimal length with its least and greatest
// numeral, numerals that prefix one another, and the largest OID.
func edgeOIDs() []mod.OID {
	out := []mod.OID{0, 1, 2, 10, 100, 11, 12, 20, 21, 101, 1000, math.MaxUint64, math.MaxUint64 - 1}
	for p := uint64(1); ; p *= 10 {
		out = append(out, mod.OID(p), mod.OID(p+1), mod.OID(p-1), mod.OID(2*p), mod.OID(p+p/10))
		if p > math.MaxUint64/10 {
			break
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// randomIntervals is a sorted list of n intervals apart by more than
// any coalescing tolerance, some of them single instants.
func randomIntervals(rng *rand.Rand, n int) []bead.Interval {
	out := make([]bead.Interval, n)
	at := rng.NormFloat64() * 100
	for i := range out {
		out[i].Lo = at
		if rng.Intn(4) > 0 {
			at += 1 + 10*rng.Float64()
		}
		out[i].Hi = at
		at += 1 + 10*rng.Float64()
	}
	return out
}

// buildPart makes a finished set of the given objects in one of the
// three ways a finished set comes about: born whole as a run, swept
// through the maps and sealed, or merged from two halves.
func buildPart(rng *rand.Rand, oids []mod.OID, endT float64) *AnswerSet {
	switch how := rng.Intn(3); how {
	case 0:
		ans := newFinishedAnswerSet(rng.Intn(4), endT)
		for _, o := range oids {
			ans.appendSorted(o, randomIntervals(rng, 1+rng.Intn(3)))
		}
		return ans
	case 1:
		ans := NewAnswerSet()
		for _, i := range rng.Perm(len(oids)) {
			for _, iv := range randomIntervals(rng, 1+rng.Intn(3)) {
				if iv.Hi > iv.Lo {
					ans.Enter(oids[i], iv.Lo)
					ans.Leave(oids[i], iv.Hi)
				} else {
					ans.Point(oids[i], iv.Lo)
				}
			}
			if rng.Intn(3) == 0 {
				ans.Enter(oids[i], 1e6) // closed by Finish
			}
		}
		ans.Finish(endT)
		return ans
	default:
		var a, b []mod.OID
		for _, o := range oids {
			if rng.Intn(2) == 0 {
				a = append(a, o)
			} else {
				b = append(b, o)
			}
		}
		return MergeDisjoint(buildPart(rng, a, endT), nil, buildPart(rng, b, endT-1))
	}
}

// caught runs fn and returns what it panicked with, as a string.
func caught(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestMergeDisjointMatchesMapReference: the linear merge of runs is the
// map-based merge, bit for bit, at P in {1, 2, 4, 7} over random subsets
// of every decimal length, with nil and empty parts among them; and it
// panics exactly when the reference does — an object in two parts,
// adjacent or not, or a part that is not finalized.
func TestMergeDisjointMatchesMapReference(t *testing.T) {
	edges := edgeOIDs()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pool []mod.OID
		for _, o := range edges {
			if rng.Intn(3) > 0 {
				pool = append(pool, o)
			}
		}
		for n := rng.Intn(60); n > 0; n-- {
			pool = append(pool, mod.OID(rng.Uint64()>>uint(rng.Intn(64))))
		}
		slices.Sort(pool)
		pool = slices.Compact(pool)
		for _, p := range []int{1, 2, 4, 7} {
			split := make([][]mod.OID, p)
			for _, o := range pool {
				if i := rng.Intn(p + 1); i < p { // some objects answer nowhere
					split[i] = append(split[i], o)
				}
			}
			parts := make([]*AnswerSet, 0, p+2)
			for i, oids := range split {
				if rng.Intn(5) == 0 {
					parts = append(parts, nil)
				}
				parts = append(parts, buildPart(rng, oids, float64(100+i)))
			}
			got, want := MergeDisjoint(parts...), refMergeDisjoint(parts...)
			if diff := sameRun(got, want); diff != "" {
				t.Fatalf("seed %d P=%d: merge diverges from the map reference: %s", seed, p, diff)
			}
			if got.closed != nil {
				t.Fatalf("seed %d P=%d: a merged set holds a closed map", seed, p)
			}
			if diff := sameRun(MergeDisjoint(got), got); diff != "" {
				t.Fatalf("seed %d P=%d: merging a merged set changes it: %s", seed, p, diff)
			}

			// One object of the first part again in the last: the parts
			// between them do not hide it.
			if p < 2 || len(split[0]) == 0 {
				continue
			}
			dup := split[0][rng.Intn(len(split[0]))]
			dupParts := slices.Clone(parts)
			dupParts[len(dupParts)-1] = buildPart(rng, sortedWith(split[p-1], dup), 0)
			gotMsg, wantMsg := caught(func() { MergeDisjoint(dupParts...) }), caught(func() { refMergeDisjoint(dupParts...) })
			if gotMsg == "" || gotMsg != wantMsg {
				t.Fatalf("seed %d P=%d: %v again in a part %d parts on: merge panicked with %q, the reference with %q",
					seed, p, dup, p, gotMsg, wantMsg)
			}
		}
	}

	open := NewAnswerSet()
	open.Enter(3, 1)
	for _, merge := range []func(...*AnswerSet) *AnswerSet{MergeDisjoint, refMergeDisjoint} {
		if msg := caught(func() { merge(buildPart(rand.New(rand.NewSource(1)), []mod.OID{1, 2}, 5), open) }); msg != "query: MergeDisjoint on a non-finalized answer set" {
			t.Errorf("an open part: panic %q", msg)
		}
	}
	if got := MergeDisjoint(); len(got.Objects()) != 0 || got.done {
		t.Errorf("merge of nothing: %v", got)
	}
}

// sortedWith returns oids with o added, ascending.
func sortedWith(oids []mod.OID, o mod.OID) []mod.OID {
	out := append(slices.Clone(oids), o)
	slices.Sort(out)
	return out
}

// TestRunIsTheSetsOrderedForm: whatever way a set came about, Run lists
// what Objects and Intervals report, ascending; a finished set hands
// out its own storage and holds no map; and recording into a finished
// set panics without changing it.
func TestRunIsTheSetsOrderedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	oids := edgeOIDs()
	for round := 0; round < 30; round++ {
		ans := buildPart(rng, oids, 50)
		ro, rf, ri := ans.Run()
		if !slices.Equal(ro, ans.Objects()) || !slices.Equal(ro, oids) || len(rf) != len(ro)+1 || ans.closed != nil {
			t.Fatalf("round %d: run objects %v, Objects %v, closed map %v", round, ro, ans.Objects(), ans.closed != nil)
		}
		for i, o := range ro {
			if span := ri[rf[i]:rf[i+1]]; !slices.Equal(span, ans.Intervals(o)) || len(span) == 0 {
				t.Fatalf("round %d: run span of %v is %v, Intervals %v", round, o, span, ans.Intervals(o))
			}
		}
		if len(ans.Intervals(5)) != 0 || len(ans.Intervals(math.MaxUint64-7)) != 0 {
			t.Fatalf("round %d: intervals for an object outside the answer", round)
		}
		if ro2, _, ri2 := ans.Run(); &ro2[0] != &ro[0] || &ri2[0] != &ri[0] {
			t.Fatalf("round %d: a finished set built its run again", round)
		}

		// Recording into a finished set panics and leaves it as it was.
		before := MergeDisjoint(ans)
		for _, record := range []func(){
			func() { ans.Enter(5, 60) },
			func() { ans.Enter(oids[3], 1e7) },
			func() { ans.Point(oids[3], 1e7) },
			func() { ans.Point(5, 60) },
		} {
			if caught(record) == "" {
				t.Fatalf("round %d: recording into a finished set did not panic", round)
			}
		}
		ans.Leave(oids[3], 2e7) // not a member: nothing to record
		if diff := sameRun(ans, before); diff != "" || ans.Member(5) {
			t.Fatalf("round %d: a finished set changed after recording into it: %s", round, diff)
		}
	}

	// A set still accumulating lists an open-only object, without
	// intervals, in its place.
	acc := NewAnswerSet()
	acc.Point(9, 1)
	acc.Enter(4, 2)
	acc.Enter(100, 3)
	acc.Leave(100, 4)
	ro, rf, ri := acc.Run()
	if !slices.Equal(ro, []mod.OID{4, 9, 100}) || !slices.Equal(rf, []int{0, 0, 1, 2}) || len(ri) != 2 {
		t.Errorf("accumulating run: %v %v %v", ro, rf, ri)
	}
	if got := acc.At(2.5); !slices.Equal(got, []mod.OID{4}) {
		t.Errorf("At(2.5) = %v, want the open member alone", got)
	}
	if got := acc.At(3.5); !slices.Equal(got, []mod.OID{4, 100}) {
		t.Errorf("At(3.5) = %v", got)
	}
	if got := acc.Universal(2, 1e9); !slices.Equal(got, []mod.OID{4}) {
		t.Errorf("Universal(2, 1e9) = %v, want the open member alone", got)
	}

	if msg := caught(func() {
		ans := newFinishedAnswerSet(2, 1)
		ans.appendSorted(7, randomIntervals(rng, 1))
		ans.appendSorted(7, randomIntervals(rng, 1))
	}); msg == "" {
		t.Error("appendSorted took the same object twice")
	}
}
