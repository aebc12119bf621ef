package query

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/piecewise"
	"repro/internal/trajectory"
)

// The threshold-bounded sweep. Theorem 4 prices a past query by its
// support changes, but a sweep over every live curve also pays for every
// crossing far above the part of the order the answer reads. An
// evaluator that reads only the low end of the order says so through
// Bounder; the past driver then sweeps only the curves that can come
// down to a threshold, and a Guard proves — or refutes — that the
// threshold was high enough. DESIGN.md ("Threshold-bounded sweep") has
// the sufficiency argument.

// Bound states which part of the precedence order an answer reads.
type Bound struct {
	// Below: every curve that comes down to this value at some instant
	// of the window (-Inf: none by value). Within's constant.
	Below float64
	// First: the first First object entries of the order at every
	// instant (0: none by rank). KNN's k.
	First int
}

// Bounder is the optional Evaluator capability behind the bounded
// sweep. A bounded evaluation may sweep more than once, so Attach must
// reset the evaluator completely.
type Bounder interface {
	Evaluator
	Bound() Bound
}

// boundMargin is the relative-plus-absolute slack by which a threshold
// is inflated before a curve is excluded for staying above it. The
// sweep reports a meeting of two curves only when their values agree to
// 1e-6 of their magnitude (core's event guard, its loosest value-space
// tolerance), so a curve that stays Inflate(thr) above can neither tie
// with nor pass a curve at or below thr, and the float rounding between
// a closed-form gdist.LowerBounder and the built curve's values is far
// inside the same slack.
const boundMargin = 1e-5

// Inflate widens a threshold by the bounded sweep's margin: a curve may
// be left out of a sweep bounded at thr only when it stays above
// Inflate(thr) on the whole window.
func Inflate(thr float64) float64 {
	if math.IsInf(thr, 0) {
		return thr
	}
	return thr + boundMargin*(math.Abs(thr)+1)
}

// Reaches reports whether f's curve for tr can come down to thr
// (inflated) somewhere in [from, hi] — the pool-membership test of a
// sweep bounded at thr. It is decided in closed form where f offers a
// lower bound, from the built curve's minimum otherwise. Every curve
// reaches +Inf.
func Reaches(f gdist.GDistance, tr trajectory.Trajectory, thr, from, hi float64) (bool, error) {
	if math.IsInf(thr, 1) {
		return true, nil
	}
	var (
		least float64
		err   error
	)
	if lb, ok := f.(gdist.LowerBounder); ok {
		least, err = lb.LowerBound(tr, from, hi)
	} else {
		var cf piecewise.Func
		if cf, err = f.Curve(tr, from, hi); err == nil {
			least = cf.Min()
		}
	}
	return err == nil && least <= Inflate(thr), err
}

// Guard is the evaluator that watches a bounded sweep's sufficiency: a
// constant sentinel curve at the threshold, and on every support change
// a walk of the order's head. As long as the first Need object entries
// all precede the sentinel, every excluded curve — above the inflated
// threshold throughout — is strictly above all of them, so the head of
// the pool's order is the head of the full order. Once the sentinel
// gets in among them the threshold was too small; the violation
// latches. Add the guard after seeding, so a half-seeded order is never
// judged.
type Guard struct {
	thr      float64
	need     int
	e        *Engine
	sentinel uint64 // 0: nothing to watch
	violated bool
}

// NewGuard builds the guard of a sweep bounded at thr whose answer reads
// the first need object entries. With need == 0 or thr == +Inf there is
// nothing to watch and the guard never fires.
func NewGuard(thr float64, need int) *Guard { return &Guard{thr: thr, need: need} }

// Attach implements Evaluator.
func (g *Guard) Attach(e *Engine) error {
	g.e, g.sentinel, g.violated = e, 0, false
	if g.need == 0 || math.IsInf(g.thr, 1) {
		return nil
	}
	id, err := e.ConstID(g.thr)
	if err != nil {
		return fmt.Errorf("query: guard sentinel: %w", err)
	}
	g.sentinel = id
	g.check()
	return nil
}

// OnChange implements Evaluator.
func (g *Guard) OnChange(core.Change) { g.check() }

// Finish implements Evaluator.
func (g *Guard) Finish(float64) {}

// Violated reports whether the sentinel has ever ranked among the first
// need object entries since the guard was attached.
func (g *Guard) Violated() bool { return g.violated }

func (g *Guard) check() {
	if g.sentinel == 0 || g.violated {
		return
	}
	n := 0
	g.e.sw.Walk(func(id uint64) bool {
		if id == g.sentinel {
			g.violated = true
			return false
		}
		if !IsConstID(id) {
			n++
		}
		return n < g.need
	})
}

// candidate is one trajectory that meets the window, with what decides
// whether its curve joins a bounded sweep.
type candidate struct {
	o  mod.OID
	tr trajectory.Trajectory
	// curve is the sweep curve over the window, built by the scan; an
	// empty one is built on insertion (Engine.Seed's entries).
	curve piecewise.Func
	// first and least are the curve's value where it starts and its
	// minimum over the window.
	first, least float64
}

// Scan is the first half of a bounded past evaluation: every trajectory
// of one source that meets the window, with its sweep curve and the
// curve's minimum. Scans of disjoint sources (shards) are independent,
// so they can be taken in parallel and swept together by RunScans.
//
// The scan builds every curve with the unchanged f.Curve and reads the
// minimum off the built polynomial pieces — the values the sweep itself
// orders by, so what it leaves out is judged by the sweep's own
// arithmetic. gdist.LowerBounder's closed form would decide the same
// without building a curve; see CHANGES.md (PR 15) for why the past path
// does not use it yet.
type Scan struct {
	f      gdist.GDistance
	lo, hi float64
	cands  []candidate
}

// ScanPast scans src for the window [lo, hi].
func ScanPast(src TrajSource, f gdist.GDistance, lo, hi float64) (*Scan, error) {
	if f == nil {
		return nil, errNilGDistance
	}
	if err := checkWindow(lo, hi); err != nil {
		return nil, err
	}
	trajs := src.Trajectories()
	sc := &Scan{f: f, lo: lo, hi: hi, cands: make([]candidate, 0, len(trajs))}
	for o, tr := range trajs {
		if o > mod.MaxOID {
			return nil, fmt.Errorf("%w: %s", ErrBadOID, o)
		}
		if !inWindow(tr, lo, hi) {
			continue
		}
		cf, err := f.Curve(tr, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("query: curve for %s: %w", o, err)
		}
		start, _ := cf.Domain()
		sc.cands = append(sc.cands, candidate{o: o, tr: tr, curve: cf, first: cf.Eval(start), least: cf.Min()})
	}
	return sc, nil
}

// Run reports the work of one bounded past evaluation.
type Run struct {
	// Stats sums the sweep work of every attempt.
	Stats core.Stats
	// Pool is the number of objects seeded into the final attempt.
	Pool int
	// Attempts counts the sweeps: 1 unless a Guard refuted a threshold.
	Attempts int
}

// Threshold is the rank ladder of the bounded sweep, the one rule for
// which curves a sweep holds: the value attempt number rung sweeps down
// to, given what the answer reads (b) and every candidate's starting
// value in ascending order. An answer that reads the first k entries is
// first swept over the curves that can come down to the 4k-th smallest
// starting value (or to b.Below, if higher), and each refuted guess
// moves to a 4 times higher rank — ranks, not multiples of a value,
// because g-distance values may be zero or negative. Rungs that would
// repeat the previous threshold are skipped, and past the last starting
// value the ladder stays at +Inf, the full order. A bound by value alone
// has no guess to refute: its ladder is b.Below on every rung.
func Threshold(b Bound, firsts []float64, rung int) float64 {
	const poolRankFactor = 4
	if b.First <= 0 {
		return b.Below
	}
	rank, thr := b.First, b.Below
	for reached := -1; reached < rung; { // reached: the last rung thr stands on
		// Compared before multiplying: no First can overflow the rank.
		if rank > len(firsts)/poolRankFactor {
			return math.Inf(1)
		}
		rank *= poolRankFactor
		if next := math.Max(b.Below, firsts[rank-1]); reached < 0 || next > thr {
			thr = next
			reached++
		}
	}
	return thr
}

// RunScans evaluates evs over the scanned sources (all of one window
// and g-distance). When every evaluator is a Bounder it sweeps only the
// candidates whose curve reaches the threshold they state, restarting
// with a geometrically larger pool while a Guard refutes the guess; the
// last possible attempt is the full order, which is also the only one
// when some evaluator states no bound.
func RunScans(scans []*Scan, evs ...Evaluator) (Run, error) {
	if len(scans) == 0 {
		return Run{}, errNoScans
	}
	sc0 := scans[0]
	bound, bounded := Bound{Below: math.Inf(-1)}, len(evs) > 0
	for _, ev := range evs {
		b, ok := ev.(Bounder)
		if !ok {
			bounded = false
			break
		}
		bd := b.Bound()
		bound.Below = math.Max(bound.Below, bd.Below)
		bound.First = max(bound.First, bd.First)
	}

	var firsts []float64 // every candidate's starting value, ascending
	if bounded && bound.First > 0 {
		for _, sc := range scans {
			for i := range sc.cands {
				firsts = append(firsts, sc.cands[i].first)
			}
		}
		sort.Float64s(firsts)
	}

	var (
		run  Run
		pool []candidate
	)
	for rung := 0; ; rung++ {
		thr := math.Inf(1)
		if bounded {
			thr = Threshold(bound, firsts, rung)
		}

		pool = pool[:0]
		limit := Inflate(thr)
		for _, sc := range scans {
			for i := range sc.cands {
				if sc.cands[i].least <= limit {
					pool = append(pool, sc.cands[i])
				}
			}
		}
		guard := NewGuard(thr, bound.First)
		st, err := sweepOnce(sc0.f, sc0.lo, sc0.hi, func(e *Engine) error { return e.seed(pool) }, guard, evs)
		run.Stats.Add(st)
		run.Pool = len(pool)
		run.Attempts++
		if err != nil || !guard.Violated() {
			return run, err
		}
	}
}

// sweepOnce runs one past sweep start to finish: attach, seed, guard,
// finish.
func sweepOnce(f gdist.GDistance, lo, hi float64, seed func(*Engine) error, guard *Guard, evs []Evaluator) (core.Stats, error) {
	e, err := NewEngine(EngineConfig{F: f, Lo: lo, Hi: hi})
	if err != nil {
		return core.Stats{}, err
	}
	for _, ev := range evs {
		if err := e.AddEvaluator(ev); err != nil {
			return core.Stats{}, err
		}
	}
	if err := seed(e); err != nil {
		return core.Stats{}, err
	}
	if guard != nil {
		if err := e.AddEvaluator(guard); err != nil {
			return core.Stats{}, err
		}
	}
	if err := e.Finish(); err != nil {
		return core.Stats{}, err
	}
	return e.Sweeper().Stats(), nil
}
