package shard

// Differential harness for the alibi machinery: seeded random update
// streams (including speed-bound declarations) are served through the
// sharded engine at P=1 and P=4, and every exact closed-form answer is
// cross-checked against the deliberately-dumb certified oracle
// (bead.Oracle): dense time discretization plus interval branch-and-
// bound over space, sharing nothing with the kernel beyond the ball
// constraint layout. The oracle is three-valued — it only ever asserts
// what it can certify (a concrete witness point, or infeasibility by a
// margin 1000x wider than the kernel's tolerance) and says Unresolved
// otherwise, so a disagreement is never a knife-edge rounding artifact.
// Scenarios with an unresolved oracle verdict are skipped and counted;
// everything else must agree exactly — the engine's indexed path at
// both shard counts with the reference scan over the unsharded epoch
// snapshot (query.Alibi, query.PossiblyWithin), bit for bit — for both
// the alibi decision and per-object possibly-within membership.
// A divergence is shrunk by truncating the update tail and printed with
// its seed for replay.
//
// MOD_SCENARIOS overrides the scenario count (CI runs 1000; each
// scenario asks several alibi pairs and one possibly-within query at
// P=1 and P=4).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bead"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/query"
)

// alibiScenario is one random workload + query set, fully determined by
// its seed.
type alibiScenario struct {
	seed  int64
	us    []mod.Update
	pairs [][2]mod.OID
	point geom.Vec
	rad   float64
	vmax  float64 // default bound for objects without a declaration
	lo    float64
	hi    float64
}

// makeAlibiScenario derives a scenario from a seed: 4-10 objects with
// slowish recorded motion, direction changes, some terminations, and
// speed-bound declarations for roughly two thirds of them — some
// generous (fat beads), some below the recorded speed (exercising the
// v_eff degeneracy). Coordinates stay small so bead intersections are
// genuinely contested rather than trivially impossible.
func makeAlibiScenario(seed int64) alibiScenario {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(7)
	m := 8 + rng.Intn(25)
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	var us []mod.Update
	tau := 0.5
	dead := make(map[mod.OID]bool)
	for i := 0; i < n; i++ {
		us = append(us, mod.New(mod.OID(i+1), tau, vec(10), vec(2)))
		tau += 0.1 + 0.4*rng.Float64()
	}
	for i := 0; i < m; i++ {
		o := mod.OID(rng.Intn(n) + 1)
		if dead[o] {
			continue
		}
		switch {
		case rng.Float64() < 0.25:
			// Bounds from 0.2 (often below the recorded speed — the
			// degenerate exact-segment regime) up to 3 (fat beads).
			us = append(us, mod.Bound(o, tau, 0.2+2.8*rng.Float64()))
		case rng.Float64() < 0.12 && len(dead) < n-2:
			dead[o] = true
			us = append(us, mod.Terminate(o, tau))
		default:
			us = append(us, mod.ChDir(o, tau, vec(2)))
		}
		tau += 0.1 + 0.4*rng.Float64()
	}
	var pairs [][2]mod.OID
	for len(pairs) < 3 {
		a := mod.OID(rng.Intn(n) + 1)
		b := mod.OID(rng.Intn(n) + 1)
		if a != b {
			pairs = append(pairs, [2]mod.OID{a, b})
		}
	}
	lo := tau * rng.Float64() * 0.5
	return alibiScenario{
		seed:  seed,
		us:    us,
		pairs: pairs,
		point: vec(12),
		rad:   0.5 + 3*rng.Float64(),
		vmax:  0.3 + 2*rng.Float64(),
		lo:    lo,
		hi:    lo + 1 + tau*rng.Float64(),
	}
}

// oracleAlibi computes the oracle verdict for one pair straight from
// the unsharded database — independent of the engine under test.
func oracleAlibi(o *bead.Oracle, db *mod.DB, a, b mod.OID, sc alibiScenario) (bead.Verdict, error) {
	ta, err := query.TrackOf(db, a, sc.vmax)
	if err != nil {
		return 0, err
	}
	tb, err := query.TrackOf(db, b, sc.vmax)
	if err != nil {
		return 0, err
	}
	return o.Alibi(ta, tb, sc.lo, sc.hi), nil
}

// capTally counts, over a run of scenarios, the possibly-within cap
// windows the broad phase's cap pass decided in closed form and the
// cap-only ones it left to the kernel.
type capTally struct{ decided, fallback int }

// runAlibiScenario evaluates one scenario at the given shard counts.
// It returns a divergence description ("" when everything agrees), the
// number of oracle-unresolved checks skipped, or a hard error; it adds
// the scenario's cap windows to tally.
func runAlibiScenario(sc alibiScenario, ps []int, tally *capTally) (string, int, error) {
	db := mod.NewDB(2, -1)
	if err := db.ApplyAll(sc.us...); err != nil {
		return "", 0, fmt.Errorf("apply: %w", err)
	}
	orc := bead.NewOracle()
	skipped := 0

	// Exact answers: first the scan (query.Alibi / query.PossiblyWithin
	// evaluate the kernel for every chain of the unsharded database, no
	// index, no cache, no partition), then the engine at each shard
	// count. Every engine is compared against the scan afterwards.
	type pAnswers struct {
		label string
		alibi []bead.Result
		pw    *query.AnswerSet
	}
	snap := db.EpochSnapshot()
	scan := pAnswers{label: "scan"}
	for _, pr := range sc.pairs {
		res, aerr := query.Alibi(snap, pr[0], pr[1], sc.lo, sc.hi, sc.vmax)
		if aerr != nil {
			return "", skipped, fmt.Errorf("alibi scan %v: %w", pr, aerr)
		}
		scan.alibi = append(scan.alibi, res)
	}
	pw, err := query.PossiblyWithin(snap, sc.point, sc.rad, sc.lo, sc.hi, sc.vmax)
	if err != nil {
		return "", skipped, fmt.Errorf("possibly-within scan: %w", err)
	}
	scan.pw = pw
	answers := []pAnswers{scan}
	decided := make([]uint64, len(ps)) // by the cap pass, at each shard count
	for i, p := range ps {
		eng, err := FromDB(db.Snapshot(), Config{Shards: p})
		if err != nil {
			return "", skipped, err
		}
		eng.Instrument(obs.NewRegistry())
		pa := pAnswers{label: fmt.Sprintf("P=%d", p)}
		for _, pr := range sc.pairs {
			res, _, aerr := eng.Alibi(pr[0], pr[1], sc.lo, sc.hi, sc.vmax)
			if aerr != nil {
				return "", skipped, fmt.Errorf("alibi %s %v: %w", pa.label, pr, aerr)
			}
			pa.alibi = append(pa.alibi, res)
		}
		pw, _, err := eng.PossiblyWithin(sc.point, sc.rad, sc.lo, sc.hi, sc.vmax)
		if err != nil {
			return "", skipped, fmt.Errorf("possibly-within %s: %w", pa.label, err)
		}
		pa.pw = pw
		decided[i] = eng.metrics.Load().beadClosed.Value()
		answers = append(answers, pa)
	}

	// Agreement with the scan must be exact: same decision, same earliest
	// instant, same membership. The runs share the kernel but not
	// partitioning, snapshots, goroutine interleaving, the track cache or
	// the broad phase's candidate collection.
	for i := 1; i < len(answers); i++ {
		for j, pr := range sc.pairs {
			a0, ai := answers[0].alibi[j], answers[i].alibi[j]
			if a0.Possible != ai.Possible ||
				(a0.Possible && math.Float64bits(a0.At) != math.Float64bits(ai.At)) {
				return fmt.Sprintf("alibi %v: %s says %+v, %s says %+v",
					pr, answers[0].label, a0, answers[i].label, ai), skipped, nil
			}
		}
		o0 := answers[0].pw.Objects()
		oi := answers[i].pw.Objects()
		if fmt.Sprint(o0) != fmt.Sprint(oi) {
			return fmt.Sprintf("possibly-within members: %s says %v, %s says %v",
				answers[0].label, o0, answers[i].label, oi), skipped, nil
		}
		for _, o := range o0 {
			if fmt.Sprint(answers[0].pw.Intervals(o)) != fmt.Sprint(answers[i].pw.Intervals(o)) {
				return fmt.Sprintf("possibly-within o%d intervals: %s says %v, %s says %v",
					o, answers[0].label, answers[0].pw.Intervals(o), answers[i].label, answers[i].pw.Intervals(o)), skipped, nil
			}
		}
	}

	// Exact vs oracle.
	for j, pr := range sc.pairs {
		want, err := oracleAlibi(orc, db, pr[0], pr[1], sc)
		if err != nil {
			return "", skipped, fmt.Errorf("oracle alibi %v: %w", pr, err)
		}
		got := answers[0].alibi[j]
		switch want {
		case bead.Unresolved:
			skipped++
		case bead.Possible:
			if !got.Possible {
				return fmt.Sprintf("alibi %v: oracle found a witness, exact says impossible (window [%g,%g])",
					pr, sc.lo, sc.hi), skipped, nil
			}
		case bead.Impossible:
			if got.Possible {
				return fmt.Sprintf("alibi %v: oracle certifies impossible, exact claims meeting at t=%g (window [%g,%g])",
					pr, got.At, sc.lo, sc.hi), skipped, nil
			}
		}
	}
	cq := bead.NewCapQuery(sc.point, sc.rad, sc.lo, sc.hi)
	var caps capTally
	for _, o := range db.Objects() {
		tr, err := query.TrackOf(db, o, sc.vmax)
		if err != nil {
			return "", skipped, fmt.Errorf("oracle track o%d: %w", o, err)
		}
		if c, live := tr.Cap(); live {
			switch _, v := c.Within(&cq); {
			case v == bead.CapDecided:
				caps.decided++
			case v == bead.CapKernel && c.T < sc.lo:
				caps.fallback++
			}
		}
		want := orc.PossiblyWithin(tr, sc.point, sc.rad, sc.lo, sc.hi)
		got := len(answers[0].pw.Intervals(o)) > 0
		switch want {
		case bead.Unresolved:
			skipped++
		case bead.Possible:
			if !got {
				return fmt.Sprintf("possibly-within o%d: oracle found a witness, exact excludes it (q=%v r=%g window [%g,%g])",
					o, sc.point, sc.rad, sc.lo, sc.hi), skipped, nil
			}
		case bead.Impossible:
			if got {
				return fmt.Sprintf("possibly-within o%d: oracle certifies out of range, exact includes %v (q=%v r=%g window [%g,%g])",
					o, answers[0].pw.Intervals(o), sc.point, sc.rad, sc.lo, sc.hi), skipped, nil
			}
		}
	}
	for i, p := range ps {
		if decided[i] != uint64(caps.decided) {
			return fmt.Sprintf("P=%d: the cap pass decided %d windows, Cap.Within decides %d", p, decided[i], caps.decided), skipped, nil
		}
	}
	if tally != nil {
		tally.decided += caps.decided
		tally.fallback += caps.fallback
	}
	return "", skipped, nil
}

func TestDifferentialAlibiVsOracle(t *testing.T) {
	scenarios := scenarioCount(t, 60)
	ps := []int{1, 4}
	const baseSeed = 173000
	failures, skipped, checks := 0, 0, 0
	var caps capTally
	for i := 0; i < scenarios; i++ {
		seed := baseSeed + int64(i)
		sc := makeAlibiScenario(seed)
		d, sk, err := runAlibiScenario(sc, ps, &caps)
		skipped += sk
		checks += len(sc.pairs) + 1
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d == "" {
			continue
		}
		// Shrink: drop updates off the tail while the divergence
		// persists, so the printed repro is minimal.
		min, minD := sc, d
		for len(min.us) > 1 {
			cand := min
			cand.us = min.us[:len(min.us)-1]
			cd, _, cerr := runAlibiScenario(cand, ps, nil)
			if cerr != nil || cd == "" {
				break
			}
			min, minD = cand, cd
		}
		t.Errorf("seed %d diverges: %s\nshrunk to %d updates (of %d): replay with makeAlibiScenario(%d), us[:%d]",
			seed, minD, len(min.us), len(sc.us), seed, len(min.us))
		if failures++; failures >= 3 {
			t.Fatal("stopping after 3 divergent seeds")
		}
	}
	if failures == 0 {
		t.Logf("%d scenarios x (scan, index at P in {1,4}): zero divergences (%d oracle-unresolved checks skipped of ~%d)",
			scenarios, skipped, checks)
	}
	// Scenario windows often start after an object's last sample, so the
	// answers compared above include the cap pass's closed forms.
	t.Logf("possibly-within cap windows: %d decided in closed form, %d cap-only ones left to the kernel",
		caps.decided, caps.fallback)
	if caps.decided == 0 {
		t.Error("the cap pass decided no window: the index-vs-scan comparison never saw a closed form")
	}
}

// TestCopiedAnswersEqualRemerged: a possibly-within answer copies the
// kernel's interval lists into its run without testing them for
// coalescing again (query.AnswerSet's appendSorted says why the second,
// absolute 1e-12 rule can never fire on what the kernel's relative one
// left apart). Over 300 scenarios of the alibi corpus the copied
// answer — the scan's and the index's at P in {1, 4} — must equal, bit
// for bit, the one that re-merges: every kernel interval recorded
// through Enter/Leave/Point, which do test.
func TestCopiedAnswersEqualRemerged(t *testing.T) {
	const baseSeed = 173000
	objects, intervals := 0, 0
	for i := int64(0); i < 300; i++ {
		sc := makeAlibiScenario(baseSeed + i)
		db := mod.NewDB(2, -1)
		if err := db.ApplyAll(sc.us...); err != nil {
			t.Fatalf("seed %d: %v", sc.seed, err)
		}
		remerged := query.NewAnswerSet()
		for _, o := range db.Objects() {
			tr, err := query.TrackOf(db, o, sc.vmax)
			if err != nil {
				t.Fatalf("seed %d: %v", sc.seed, err)
			}
			ivs, _, err := tr.PossiblyWithinStats(sc.point, sc.rad, sc.lo, sc.hi)
			if err != nil {
				t.Fatalf("seed %d: %v", sc.seed, err)
			}
			for _, iv := range ivs {
				if iv.Hi > iv.Lo {
					remerged.Enter(o, iv.Lo)
					remerged.Leave(o, iv.Hi)
				} else {
					remerged.Point(o, iv.Lo)
				}
			}
		}
		remerged.Finish(sc.hi)
		wantO, wantF, wantI := remerged.Run()
		objects += len(wantO)
		intervals += len(wantI)

		copied := map[string]*query.AnswerSet{}
		var err error
		if copied["scan"], err = query.PossiblyWithin(db.EpochSnapshot(), sc.point, sc.rad, sc.lo, sc.hi, sc.vmax); err != nil {
			t.Fatalf("seed %d: %v", sc.seed, err)
		}
		for _, p := range []int{1, 4} {
			eng, err := FromDB(db.Snapshot(), Config{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			if copied[fmt.Sprintf("P=%d", p)], _, err = eng.PossiblyWithin(sc.point, sc.rad, sc.lo, sc.hi, sc.vmax); err != nil {
				t.Fatalf("seed %d: %v", sc.seed, err)
			}
		}
		for label, ans := range copied {
			gotO, gotF, gotI := ans.Run()
			same := slices.Equal(gotO, wantO) && slices.Equal(gotF, wantF)
			for k := 0; same && k < len(wantI); k++ {
				same = math.Float64bits(gotI[k].Lo) == math.Float64bits(wantI[k].Lo) &&
					math.Float64bits(gotI[k].Hi) == math.Float64bits(wantI[k].Hi)
			}
			if !same {
				t.Fatalf("seed %d %s: copied %v, re-merged %v", sc.seed, label, ans, remerged)
			}
		}
	}
	if objects < 300 || intervals < objects {
		t.Fatalf("%d objects and %d intervals over 300 scenarios: the corpus answers too little to pin anything", objects, intervals)
	}
	t.Logf("300 scenarios, %d answering objects, %d intervals: copied and re-merged answers equal bit for bit", objects, intervals)
}
