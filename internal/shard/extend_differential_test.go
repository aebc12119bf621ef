package shard

// Differential harness for the bead index's live path: a sync extends
// the cached track of an object that only gained samples and inserts
// only the new chain boxes, so a long-lived index is the product of
// many extensions, retirements and re-packs — and it must answer
// exactly as an index bulk-built from nothing on the same snapshot.
// Seeded random update streams (new/chdir/terminate/bound) run through
// one long-lived engine at P=1 and P=4 with queries interleaved, so
// syncs happen at many histories; the default speed bound changes
// between queries (usable values, "declarations required", and a value
// no track can be built with), so default-dependent entries are rebuilt
// and error entries come and go. At every query a fresh engine is built
// from the long-lived one's snapshot, and the two must agree bit for
// bit on: possibly-within answers and alibi results through the engine,
// and per shard the index's answers, BeadStats, every object's TrackOf
// samples and speed bound, and every error.
//
// MOD_SCENARIOS overrides the scenario count (CI runs 300 under
// the race detector).

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bead"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
)

func sameAnswers(a, b *query.AnswerSet) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("answer %v vs %v", a, b)
		}
		return ""
	}
	ao, bo := a.Objects(), b.Objects()
	if fmt.Sprint(ao) != fmt.Sprint(bo) {
		return fmt.Sprintf("objects %v vs %v", ao, bo)
	}
	for _, o := range ao {
		ai, bi := a.Intervals(o), b.Intervals(o)
		if len(ai) != len(bi) {
			return fmt.Sprintf("o%d: %v vs %v", o, ai, bi)
		}
		for k := range ai {
			if math.Float64bits(ai[k].Lo) != math.Float64bits(bi[k].Lo) || math.Float64bits(ai[k].Hi) != math.Float64bits(bi[k].Hi) {
				return fmt.Sprintf("o%d interval %d: %v vs %v", o, k, ai[k], bi[k])
			}
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func sameTracks(a, b *bead.Track) bool {
	if a == nil || b == nil {
		return a == b
	}
	as, bs := a.Samples(), b.Samples()
	if len(as) != len(bs) || math.Float64bits(a.Vmax()) != math.Float64bits(b.Vmax()) ||
		math.Float64bits(a.End()) != math.Float64bits(b.End()) {
		return false
	}
	for i := range as {
		if math.Float64bits(as[i].T) != math.Float64bits(bs[i].T) || len(as[i].X) != len(bs[i].X) {
			return false
		}
		for d := range as[i].X {
			if math.Float64bits(as[i].X[d]) != math.Float64bits(bs[i].X[d]) {
				return false
			}
		}
	}
	return true
}

// compareWithRebuilt asks the long-lived engine and a fresh engine built
// from its snapshot the same questions; it returns the first
// disagreement, "" when there is none.
func compareWithRebuilt(long *Engine, p int, rng *rand.Rand, objs []mod.OID, vmax, tau float64) (string, error) {
	fresh, err := FromDB(long.Snapshot(), Config{Shards: p})
	if err != nil {
		return "", err
	}
	q := geom.Of(40*(rng.Float64()-0.5), 40*(rng.Float64()-0.5))
	dist := 1 + 10*rng.Float64()
	lo := tau * rng.Float64()
	hi := lo + 0.5 + 8*rng.Float64() // often past tau: the caps

	la, _, lerr := long.PossiblyWithin(q, dist, lo, hi, vmax)
	fa, _, ferr := fresh.PossiblyWithin(q, dist, lo, hi, vmax)
	if errText(lerr) != errText(ferr) {
		return fmt.Sprintf("possibly-within error: extended %v, rebuilt %v", lerr, ferr), nil
	}
	if d := sameAnswers(la, fa); d != "" {
		return "possibly-within: " + d, nil
	}
	for k := 0; k < 3 && len(objs) > 1; k++ {
		a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
		lr, _, lerr := long.Alibi(a, b, lo, hi, vmax)
		fr, _, ferr := fresh.Alibi(a, b, lo, hi, vmax)
		if errText(lerr) != errText(ferr) || lr.Possible != fr.Possible || math.Float64bits(lr.At) != math.Float64bits(fr.At) ||
			lr.Checked != fr.Checked || lr.Pruned != fr.Pruned {
			return fmt.Sprintf("alibi(%d,%d): extended %+v %v, rebuilt %+v %v", a, b, lr, lerr, fr, ferr), nil
		}
	}

	lsnaps, fsnaps := long.Snapshots(), fresh.Snapshots()
	lixs, fixs := long.beadIndexes(), fresh.beadIndexes()
	for i := range lsnaps {
		la, lst, lerr := lixs[i].PossiblyWithin(lsnaps[i], q, dist, lo, hi, vmax)
		fa, fst, ferr := fixs[i].PossiblyWithin(fsnaps[i], q, dist, lo, hi, vmax)
		if errText(lerr) != errText(ferr) {
			return fmt.Sprintf("shard %d index error: extended %v, rebuilt %v", i, lerr, ferr), nil
		}
		if lst != fst {
			return fmt.Sprintf("shard %d BeadStats: extended %+v, rebuilt %+v", i, lst, fst), nil
		}
		if d := sameAnswers(la, fa); d != "" {
			return fmt.Sprintf("shard %d index answer: %s", i, d), nil
		}
	}
	for _, o := range append([]mod.OID{9999}, objs...) { // 9999 was never created
		i := long.ShardOf(o)
		lt, lerr := lixs[i].TrackOf(lsnaps[i], o, vmax)
		ft, ferr := fixs[i].TrackOf(fsnaps[i], o, vmax)
		if errText(lerr) != errText(ferr) || !sameTracks(lt, ft) {
			return fmt.Sprintf("TrackOf(o%d): extended %v %v, rebuilt %v %v", o, lt, lerr, ft, ferr), nil
		}
	}
	return "", nil
}

// runExtendScenario drives one seeded stream through a long-lived
// engine of p shards and compares at every interleaved query.
func runExtendScenario(seed int64, p int) (string, int, error) {
	rng := rand.New(rand.NewSource(seed))
	long, err := New(Config{Shards: p, Dim: 2, Tau0: -1})
	if err != nil {
		return "", 0, err
	}
	vec := func(s float64) geom.Vec { return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5)) }
	var objs, live []mod.OID
	tau, queries := 0.0, 0
	vmax := 1.5
	steps := 60 + rng.Intn(80)
	for step := 0; step < steps; step++ {
		tau += 0.05 + 0.5*rng.Float64()
		var u mod.Update
		switch r := rng.Float64(); {
		case len(live) < 3 || r < 0.12:
			o := mod.OID(len(objs) + 1)
			objs, live = append(objs, o), append(live, o)
			u = mod.New(o, tau, vec(3), vec(30))
		case r < 0.20:
			i := rng.Intn(len(live))
			u = mod.Terminate(live[i], tau)
			live = append(live[:i], live[i+1:]...)
		case r < 0.32:
			// Any object, terminated ones too; sometimes the bound it
			// already has, which changes the generation and nothing else.
			u = mod.Bound(objs[rng.Intn(len(objs))], tau, []float64{0.3, 1, 1, 2.5}[rng.Intn(4)])
		default:
			// Direction changes dominate, and favour one object so its
			// history grows long between queries.
			o := live[0]
			if rng.Intn(3) == 0 {
				o = live[rng.Intn(len(live))]
			}
			u = mod.ChDir(o, tau, vec(3))
		}
		if err := long.Apply(u); err != nil {
			return "", queries, fmt.Errorf("step %d %v: %w", step, u, err)
		}
		if rng.Intn(4) != 0 && step != steps-1 {
			continue
		}
		if rng.Intn(3) == 0 {
			vmax = []float64{1.5, 2.5, 0.7, -1, math.Inf(1)}[rng.Intn(5)]
		}
		queries++
		d, err := compareWithRebuilt(long, p, rng, objs, vmax, tau)
		if err != nil {
			return "", queries, fmt.Errorf("step %d: %w", step, err)
		}
		if d != "" {
			return fmt.Sprintf("after %d updates, default vmax %v: %s", step+1, vmax, d), queries, nil
		}
	}
	return "", queries, nil
}

func TestDifferentialExtendedVsRebuiltIndex(t *testing.T) {
	scenarios := scenarioCount(t, 40)
	const baseSeed = 190000
	queries := 0
	for i := 0; i < scenarios; i++ {
		for _, p := range []int{1, 4} {
			seed := baseSeed + int64(i)
			d, n, err := runExtendScenario(seed, p)
			queries += n
			if err != nil {
				t.Fatalf("seed %d P=%d: %v", seed, p, err)
			}
			if d != "" {
				t.Fatalf("seed %d P=%d diverges %s\nreplay with runExtendScenario(%d, %d)", seed, p, d, seed, p)
			}
		}
	}
	t.Logf("%d scenarios x P in {1,4}, %d interleaved query rounds: extended and rebuilt indexes agree everywhere", scenarios, queries)
}
