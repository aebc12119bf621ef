package query

// Differential tests for the uncertainty broad phase: on random update
// histories, BeadIndex.PossiblyWithin must return bit-identical answer
// sets to the scan-path PossiblyWithin on the same snapshot — across
// object churn (so the change-log sync retires and rebuilds entries),
// default-speed-bound changes (so default-dependent entries are
// invalidated), and live caps (windows past the last sample). The index
// is deliberately created BEFORE the history is applied, so its
// incremental path is exercised, not just bulk build.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
)

// answersEqual compares two answer sets exactly (Float64bits, not
// tolerance): the broad phase promises the same kernel runs on the same
// windows, so outputs must be identical, not merely close.
func answersEqual(a, b *AnswerSet) string {
	ao, bo := a.Objects(), b.Objects()
	if fmt.Sprint(ao) != fmt.Sprint(bo) {
		return fmt.Sprintf("objects %v vs %v", ao, bo)
	}
	for _, o := range ao {
		ai, bi := a.Intervals(o), b.Intervals(o)
		if len(ai) != len(bi) {
			return fmt.Sprintf("object %d: %d vs %d intervals", o, len(ai), len(bi))
		}
		for k := range ai {
			if math.Float64bits(ai[k].Lo) != math.Float64bits(bi[k].Lo) ||
				math.Float64bits(ai[k].Hi) != math.Float64bits(bi[k].Hi) {
				return fmt.Sprintf("object %d interval %d: %v vs %v", o, k, ai[k], bi[k])
			}
		}
	}
	return ""
}

func TestBeadIndexMatchesScan(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(4200 + trial)))
		db := mod.NewDB(2, -1)
		ix := NewBeadIndex(db)
		tau := 0.0
		live := []mod.OID{}
		next := mod.OID(1)
		defaultVmax := 2.0

		randVec := func(scale float64) geom.Vec {
			return geom.Of(scale*(rng.Float64()-0.5), scale*(rng.Float64()-0.5))
		}
		spawn := func() {
			tau += 0.1 + rng.Float64()
			o := next
			next++
			must(t, db.Apply(mod.New(o, tau, randVec(2), randVec(60))))
			if rng.Intn(2) == 0 {
				tau += 0.01
				must(t, db.Apply(mod.Bound(o, tau, 0.5+3*rng.Float64())))
			}
			live = append(live, o)
		}
		step := func() {
			if len(live) == 0 || rng.Intn(4) == 0 {
				spawn()
				return
			}
			i := rng.Intn(len(live))
			o := live[i]
			tau += 0.1 + rng.Float64()
			switch rng.Intn(5) {
			case 0:
				must(t, db.Apply(mod.Terminate(o, tau)))
				live = append(live[:i], live[i+1:]...)
			case 1:
				must(t, db.Apply(mod.Bound(o, tau, 0.5+3*rng.Float64())))
			default:
				must(t, db.Apply(mod.ChDir(o, tau, randVec(2))))
			}
		}
		query := func() {
			snap := db.EpochSnapshot()
			q := randVec(80)
			dist := 1 + 8*rng.Float64()
			lo := tau * rng.Float64()
			hi := lo + 15*rng.Float64() // often past tau: exercises caps
			want, err := PossiblyWithin(snap, q, dist, lo, hi, defaultVmax)
			if err != nil {
				t.Fatalf("trial %d: scan: %v", trial, err)
			}
			got, st, err := ix.PossiblyWithin(snap, q, dist, lo, hi, defaultVmax)
			if err != nil {
				t.Fatalf("trial %d: index: %v", trial, err)
			}
			if diff := answersEqual(want, got); diff != "" {
				t.Fatalf("trial %d: index diverges from scan: %s\nscan  %v\nindex %v",
					trial, diff, want, got)
			}
			if st.Population != snap.Len() || st.Candidates > st.Population {
				t.Fatalf("trial %d: stats %+v inconsistent with population %d",
					trial, st, snap.Len())
			}
		}

		for i := 0; i < 6; i++ {
			spawn()
		}
		for round := 0; round < 12; round++ {
			for i := 0; i < 5; i++ {
				step()
			}
			if round%4 == 3 {
				// Changing the default invalidates exactly the entries that
				// were built from it.
				defaultVmax = 1 + 3*rng.Float64()
			}
			query()
			query()
		}
	}
}

// TestBeadIndexRebuildCompaction churns one population hard enough to
// cross the tombstone-compaction threshold and re-verifies equivalence
// afterwards.
func TestBeadIndexRebuildCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := mod.NewDB(2, -1)
	ix := NewBeadIndex(db)
	tau := 0.0
	const n = 30
	for o := mod.OID(1); o <= n; o++ {
		tau += 0.2
		must(t, db.Apply(mod.New(o, tau, geom.Of(rng.Float64(), rng.Float64()), geom.Of(10*rng.Float64(), 10*rng.Float64()))))
		tau += 0.01
		must(t, db.Apply(mod.Bound(o, tau, 1)))
	}
	check := func() {
		snap := db.EpochSnapshot()
		q := geom.Of(5, 5)
		want, err := PossiblyWithin(snap, q, 4, 0, tau+5, 1)
		must(t, err)
		got, _, err := ix.PossiblyWithin(snap, q, 4, 0, tau+5, 1)
		must(t, err)
		if diff := answersEqual(want, got); diff != "" {
			t.Fatalf("diverged after churn: %s", diff)
		}
	}
	check()
	// A chdir extends the object's entry and leaves no tombstone; a new
	// speed bound retires it (every chain box becomes a tombstone) and
	// rebuilds it. 20 rounds × 30 objects of both cross the dead > 64
	// compaction threshold many times over.
	packs, tree := 0, ix.tree
	for round := 0; round < 20; round++ {
		for o := mod.OID(1); o <= n; o++ {
			tau += 0.05
			must(t, db.Apply(mod.ChDir(o, tau, geom.Of(rng.Float64()-0.5, rng.Float64()-0.5))))
			tau += 0.01
			must(t, db.Apply(mod.Bound(o, tau, 1+float64(round%3))))
		}
		check()
		if ix.tree != tree {
			packs, tree = packs+1, ix.tree
		}
	}
	if packs < 2 {
		t.Fatalf("the tree was re-packed %d times; the churn no longer reaches compaction", packs)
	}
}

func TestValidateSpeedBoundsNamesAllMissing(t *testing.T) {
	db := mod.NewDB(2, -1)
	must(t, db.Apply(mod.New(1, 1, geom.Of(0, 0), geom.Of(0, 0))))
	must(t, db.Apply(mod.New(2, 2, geom.Of(0, 0), geom.Of(1, 1))))
	must(t, db.Apply(mod.New(3, 3, geom.Of(0, 0), geom.Of(2, 2))))
	must(t, db.Apply(mod.Bound(2, 4, 1)))

	_, err := PossiblyWithin(db, geom.Of(0, 0), 1, 0, 5, -1)
	if err == nil {
		t.Fatal("want error for undeclared bounds, got none")
	}
	if !errors.Is(err, ErrNoSpeedBound) {
		t.Fatalf("errors.Is(err, ErrNoSpeedBound) = false for %v", err)
	}
	var nsb *NoSpeedBoundError
	if !errors.As(err, &nsb) {
		t.Fatalf("errors.As(NoSpeedBoundError) = false for %v", err)
	}
	if fmt.Sprint(nsb.Objects) != fmt.Sprint([]mod.OID{1, 3}) {
		t.Fatalf("missing objects %v, want [1 3]", nsb.Objects)
	}
	if !strings.Contains(err.Error(), "1, 3") {
		t.Fatalf("error text %q does not name both objects", err)
	}

	// The index path fails identically, before touching the tree.
	ix := NewBeadIndex(db)
	_, _, err2 := ix.PossiblyWithin(db.EpochSnapshot(), geom.Of(0, 0), 1, 0, 5, -1)
	if err2 == nil || !errors.Is(err2, ErrNoSpeedBound) {
		t.Fatalf("index path error %v, want NoSpeedBoundError", err2)
	}

	// A usable default repairs both paths.
	if _, err := PossiblyWithin(db, geom.Of(0, 0), 1, 0, 5, 2); err != nil {
		t.Fatalf("scan with default: %v", err)
	}
	if _, _, err := ix.PossiblyWithin(db.EpochSnapshot(), geom.Of(0, 0), 1, 0, 5, 2); err != nil {
		t.Fatalf("index with default: %v", err)
	}

	// Single-object TrackOf keeps the typed error too.
	if _, err := TrackOf(db, 1, -1); !errors.Is(err, ErrNoSpeedBound) {
		t.Fatalf("TrackOf error %v, want NoSpeedBoundError", err)
	}
	if _, err := ix.TrackOf(db.EpochSnapshot(), 1, -1); !errors.Is(err, ErrNoSpeedBound) {
		t.Fatalf("index TrackOf error %v, want NoSpeedBoundError", err)
	}
}

func TestBeadIndexTrackOfMatchesScan(t *testing.T) {
	db := mod.NewDB(2, -1)
	must(t, db.Apply(mod.New(1, 1, geom.Of(1, 0), geom.Of(0, 0))))
	must(t, db.Apply(mod.Bound(1, 2, 3)))
	must(t, db.Apply(mod.ChDir(1, 3, geom.Of(0, 1))))
	ix := NewBeadIndex(db)
	snap := db.EpochSnapshot()

	want, err := TrackOf(snap, 1, -1)
	must(t, err)
	got, err := ix.TrackOf(snap, 1, -1)
	must(t, err)
	if fmt.Sprint(want.Samples()) != fmt.Sprint(got.Samples()) || want.Vmax() != got.Vmax() {
		t.Fatalf("cached track differs:\nscan  %v vmax %g\nindex %v vmax %g",
			want.Samples(), want.Vmax(), got.Samples(), got.Vmax())
	}
	// Unknown objects produce the scan path's not-found error.
	if _, err := ix.TrackOf(snap, 42, -1); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("unknown object error %v, want ErrNotFound", err)
	}
}

// TestBroadPhaseCandidatesFollowTheQuery holds the broad phase to its
// reason for existing: on a fleet spread over an arena two hundred
// times wider than the query ball, a possibly-within passes a small
// share of the population to the kernel path, and answers exactly as
// the scan that evaluates every chain does.
func TestBroadPhaseCandidatesFollowTheQuery(t *testing.T) {
	const (
		nObjects    = 2000
		nQueries    = 60
		arena       = 1000.0
		radius      = 5.0
		defaultVmax = 1.5
		horizon     = 30.0
		// Measured: 83 of 120,000 (0.07 %). A broad phase that passes
		// every live chain through reads 100 %.
		maxShare = 0.005
	)
	rng := rand.New(rand.NewSource(16))
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	// Creations over the first few time units, one declared bound each,
	// then two direction changes apiece across the horizon. Everything
	// stays live, so every track ends in a cap.
	db := mod.NewDB(2, -1)
	ix := NewBeadIndex(db)
	tau := 0.5
	step := 4.0 / nObjects
	for i := 1; i <= nObjects; i++ {
		must(t, db.Apply(mod.New(mod.OID(i), tau, vec(2), vec(arena))))
		tau += step
		must(t, db.Apply(mod.Bound(mod.OID(i), tau, 0.5+2*rng.Float64())))
		tau += step
	}
	step = (horizon - tau) / (2*nObjects + 1)
	for round := 0; round < 2; round++ {
		for i := 1; i <= nObjects; i++ {
			must(t, db.Apply(mod.ChDir(mod.OID(i), tau, vec(2))))
			tau += step
		}
	}

	snap := db.EpochSnapshot()
	candidates, population, found := 0, 0, 0
	for i := 0; i < nQueries; i++ {
		q, lo := vec(0.9*arena), 5+20*rng.Float64()
		want, err := PossiblyWithin(snap, q, radius, lo, lo+3, defaultVmax)
		must(t, err)
		got, st, err := ix.PossiblyWithin(snap, q, radius, lo, lo+3, defaultVmax)
		must(t, err)
		if diff := answersEqual(want, got); diff != "" {
			t.Fatalf("query %d: broad phase diverges from the scan: %s", i, diff)
		}
		candidates += st.Candidates
		population += st.Population
		found += len(got.Objects())
	}
	share := float64(candidates) / float64(population)
	t.Logf("broad phase passed %d of %d chains to the kernel path (%.2f %%); %d answers",
		candidates, population, 100*share, found)
	if found == 0 {
		t.Error("no query found an object: the comparison with the scan checked only empty answers")
	}
	if share > maxShare {
		t.Errorf("broad phase passed %d of %d chains (%.1f %%), want at most %.1f %%",
			candidates, population, 100*share, 100*maxShare)
	}
}

// TestCapPassAnswersCapOnlyObjects: when the window lies after every
// object's last sample, every candidate is cap-only, and the cap pass
// answers each of them in closed form (bead.Cap.Within): the query
// reaches the kernel zero times and answers exactly as the scan that
// walks every track. An index that sent caps back through the kernel
// walk would count a kernel call per candidate.
func TestCapPassAnswersCapOnlyObjects(t *testing.T) {
	db := uncertainPopulation(t, 2000) // last turns by t = 40
	ix := NewBeadIndex(db)
	snap := db.EpochSnapshot()
	rng := rand.New(rand.NewSource(36))
	closed, found := 0, 0
	for i := 0; i < 20; i++ {
		q := geom.Of(1600*(rng.Float64()-0.5), 1600*(rng.Float64()-0.5))
		radius, hi := 20+200*rng.Float64(), 50+20*rng.Float64()
		lo := hi - 10
		want, err := PossiblyWithin(snap, q, radius, lo, hi, 15)
		must(t, err)
		got, st, err := ix.PossiblyWithin(snap, q, radius, lo, hi, 15)
		must(t, err)
		if diff := answersEqual(want, got); diff != "" {
			t.Fatalf("query %d: index diverges from the scan: %s", i, diff)
		}
		if st.Kernel != 0 || st.Windows != st.Closed+st.Pruned || st.Candidates != st.Windows {
			t.Fatalf("query %d over [%g, %g]: stats %+v: cap-only candidates went to the kernel", i, lo, hi, st)
		}
		closed += st.Closed
		found += len(got.Objects())
	}
	t.Logf("20 queries: %d windows decided in closed form, %d answers", closed, found)
	if closed == 0 || found == 0 {
		t.Fatalf("%d windows decided, %d answers: the queries asked nothing of the cap pass", closed, found)
	}
}
