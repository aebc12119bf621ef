package query

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/piecewise"
	"repro/internal/trajectory"
)

// Curve-entry ids. The sweep holds one curve per object, under its OID
// (the paper's {f_o | o ∈ O}), plus one curve per real constant appearing
// in the query, under an id with the top bit set.
const constBit = uint64(1) << 63

// Every OID the database accepts must stay clear of the constant bit:
// the array length goes negative, and the build fails, if mod.MaxOID
// grows into it.
var _ [constBit - 1 - uint64(mod.MaxOID)]struct{}

// packConst builds the sweep id of constant index i.
func packConst(i int) uint64 { return constBit | uint64(i) }

// IsConstID reports whether a sweep id denotes a constant curve.
func IsConstID(id uint64) bool { return id&constBit != 0 }

// Evaluator consumes the support-change stream. Implementations maintain
// an AnswerSet incrementally.
type Evaluator interface {
	// Attach is called once when the evaluator is registered; it may
	// register constant curves and must capture the engine reference.
	Attach(e *Engine) error
	// OnChange is invoked for every support change, in time order, after
	// the engine's order already reflects the change.
	OnChange(c core.Change)
	// Finish closes the evaluator's answer at the end of the window.
	Finish(t float64)
}

// EngineConfig configures an evaluation engine.
type EngineConfig struct {
	// F is the generalized distance. Required.
	F gdist.GDistance
	// Lo, Hi delimit the query interval I. Hi may be math.Inf(1) only
	// for distances with closed-form curves.
	Lo, Hi float64
	// Queue optionally overrides the event-queue implementation.
	Queue eventq.Queue
	// Audit enables internal invariant checking (tests).
	Audit bool
}

// Engine drives the plane sweep for one query interval over a set of
// moving objects: it converts trajectories to g-distance curves, feeds
// updates into the sweeper (the paper's Section 5 update handling), and
// fans the support-change stream out to evaluators.
type Engine struct {
	f       gdist.GDistance
	lo, hi  float64
	sw      *core.Sweeper
	trajs   map[mod.OID]trajectory.Trajectory
	pending []pendingInsert
	evals   []Evaluator
	consts  map[float64]uint64
	nconst  int

	updatesApplied int
}

type pendingInsert struct {
	at    float64
	o     mod.OID
	curve piecewise.Func // ready-built by a scan, or empty
}

// Errors returned by the engine.
var (
	ErrBadWindow = errors.New("query: empty or inverted window")
	ErrBadOID    = errors.New("query: OID exceeds mod.MaxOID (2^48-1); sweep ids with bit 63 set are constant curves")

	errNilGDistance = errors.New("query: nil g-distance")
	errNoScans      = errors.New("query: no scans to sweep")
)

// checkWindow rejects an empty or inverted window.
func checkWindow(lo, hi float64) error {
	if !(lo < hi) {
		return fmt.Errorf("%w: [%g,%g]", ErrBadWindow, lo, hi)
	}
	return nil
}

// inWindow reports whether tr's lifetime overlaps the window (lo, hi).
func inWindow(tr trajectory.Trajectory, lo, hi float64) bool {
	return tr.IsDefined() && tr.End() > lo && tr.Start() < hi
}

// NewEngine builds an engine over the window [cfg.Lo, cfg.Hi].
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.F == nil {
		return nil, errNilGDistance
	}
	if err := checkWindow(cfg.Lo, cfg.Hi); err != nil {
		return nil, err
	}
	e := &Engine{
		f:      cfg.F,
		lo:     cfg.Lo,
		hi:     cfg.Hi,
		trajs:  make(map[mod.OID]trajectory.Trajectory),
		consts: make(map[float64]uint64),
	}
	e.sw = core.NewSweeper(core.Config{
		Start:    cfg.Lo,
		Horizon:  cfg.Hi,
		Queue:    cfg.Queue,
		Audit:    cfg.Audit,
		OnChange: e.fanout,
	})
	return e, nil
}

// fanout relays a support change to every evaluator.
func (e *Engine) fanout(c core.Change) {
	for _, ev := range e.evals {
		ev.OnChange(c)
	}
}

// AddEvaluator registers an evaluator; call before Seed so the evaluator
// sees every change.
func (e *Engine) AddEvaluator(ev Evaluator) error {
	if err := ev.Attach(e); err != nil {
		return err
	}
	e.evals = append(e.evals, ev)
	return nil
}

// Sweeper exposes the underlying sweep (read-only use by evaluators).
func (e *Engine) Sweeper() *core.Sweeper { return e.sw }

// Window returns the query interval.
func (e *Engine) Window() (lo, hi float64) { return e.lo, e.hi }

// GDistance returns the engine's generalized distance.
func (e *Engine) GDistance() gdist.GDistance { return e.f }

// Traj returns the engine's view of an object's trajectory.
func (e *Engine) Traj(o mod.OID) (trajectory.Trajectory, bool) {
	tr, ok := e.trajs[o]
	return tr, ok
}

// NumObjects returns the number of live objects in the sweep (excluding
// constants).
func (e *Engine) NumObjects() int {
	n := 0
	for o := range e.trajs {
		if e.sw.Contains(uint64(o)) {
			n++
		}
	}
	return n
}

// ConstID registers (idempotently) a constant curve for value c, valid on
// the whole window, and returns its sweep id.
func (e *Engine) ConstID(c float64) (uint64, error) {
	if id, ok := e.consts[c]; ok {
		return id, nil
	}
	id := packConst(e.nconst)
	cf := piecewise.Constant(c, e.lo, e.hi)
	if err := e.sw.AddCurve(id, cf); err != nil {
		return 0, err
	}
	e.nconst++
	e.consts[c] = id
	return id, nil
}

// Seed loads the engine with the trajectories of a MOD snapshot. Objects
// live at the window start are inserted immediately (the initial
// O(N log N) sort of Theorem 5(1)); objects whose trajectories begin
// later in the window are queued and inserted by RunTo at their creation
// times (a past query replays recorded creations as updates). Objects
// whose lifetime misses the window entirely are skipped.
func (e *Engine) Seed(trajs map[mod.OID]trajectory.Trajectory) error {
	entries := make([]candidate, 0, len(trajs))
	for o, tr := range trajs {
		if o > mod.MaxOID {
			return fmt.Errorf("%w: %s", ErrBadOID, o)
		}
		if inWindow(tr, e.lo, e.hi) {
			entries = append(entries, candidate{o: o, tr: tr})
		}
	}
	return e.seed(entries)
}

// seed is Seed over trajectories already known to meet the window. An
// entry may carry its sweep curve over [lo, hi] ready-built. It sorts
// entries by OID.
func (e *Engine) seed(entries []candidate) error {
	sort.Slice(entries, func(i, j int) bool { return entries[i].o < entries[j].o })
	for _, en := range entries {
		e.trajs[en.o] = en.tr
		if en.tr.Start() <= e.lo {
			if err := e.insertObject(en.o, en.tr, e.lo, en.curve); err != nil {
				return err
			}
		} else {
			e.pending = append(e.pending, pendingInsert{at: en.tr.Start(), o: en.o, curve: en.curve})
		}
	}
	sort.Slice(e.pending, func(i, j int) bool {
		if e.pending[i].at != e.pending[j].at { //modlint:allow floatcmp -- comparator: strict weak ordering needs exact compares
			return e.pending[i].at < e.pending[j].at
		}
		return e.pending[i].o < e.pending[j].o
	})
	return nil
}

// insertObject adds o's curve from `from` on; a non-empty built is that
// curve ready-made.
func (e *Engine) insertObject(o mod.OID, tr trajectory.Trajectory, from float64, built piecewise.Func) error {
	cf := built
	if cf.IsZeroLen() {
		var err error
		if cf, err = e.f.Curve(tr, from, e.hi); err != nil {
			return fmt.Errorf("query: curve for %s: %w", o, err)
		}
	}
	return e.sw.AddCurve(uint64(o), cf)
}

// InsertObject registers an object's authoritative trajectory
// mid-window, inserting its curve from time `from` on — the pool-growth
// path of a subscription engine: an object that becomes relevant to a
// maintained query (it moves toward the query region) joins the sweep
// with its full recorded trajectory, so the curve it contributes is
// exactly the one a fresh evaluation over the whole database would
// build (gdist curves depend only on the trajectory's pieces, not on
// the clip start). The sweep must already be at `from` (call RunTo
// first); objects whose lifetime misses [from, hi] are rejected.
func (e *Engine) InsertObject(o mod.OID, tr trajectory.Trajectory, from float64) error {
	if o > mod.MaxOID {
		return fmt.Errorf("%w: %s", ErrBadOID, o)
	}
	if from < e.sw.Now() {
		return fmt.Errorf("query: insert at %g before sweep time %g", from, e.sw.Now())
	}
	if !tr.IsDefined() || tr.End() <= from || tr.Start() >= e.hi {
		return fmt.Errorf("query: %s's lifetime misses [%g,%g]", o, from, e.hi)
	}
	if err := e.RunTo(from); err != nil {
		return err
	}
	e.trajs[o] = tr
	return e.insertObject(o, tr, from, piecewise.Func{})
}

// NextEventTime peeks the earliest instant at which the engine has work
// scheduled: a pending creation or a kinetic event in the sweep. Until
// then every evaluator's current answer is constant.
func (e *Engine) NextEventTime() (float64, bool) {
	t, ok := e.sw.NextEventTime()
	if len(e.pending) > 0 && (!ok || e.pending[0].at < t) {
		return e.pending[0].at, true
	}
	return t, ok
}

// RunTo advances the sweep to time t, performing queued insertions at
// their creation instants along the way.
func (e *Engine) RunTo(t float64) error {
	if t > e.hi {
		return fmt.Errorf("query: RunTo(%g) beyond window end %g", t, e.hi)
	}
	for len(e.pending) > 0 && e.pending[0].at <= t {
		p := e.pending[0]
		e.pending = e.pending[1:]
		if err := e.sw.AdvanceTo(p.at); err != nil {
			return err
		}
		if err := e.insertObject(p.o, e.trajs[p.o], p.at, p.curve); err != nil {
			return err
		}
	}
	return e.sw.AdvanceTo(t)
}

// Finish advances to the end of the window and finalizes all evaluators.
// For unbounded windows it finalizes at the current sweep time.
func (e *Engine) Finish() error {
	if !math.IsInf(e.hi, 1) {
		if err := e.RunTo(e.hi); err != nil {
			return err
		}
	}
	t := e.sw.Now()
	for _, ev := range e.evals {
		ev.Finish(t)
	}
	return nil
}

// ApplyUpdate ingests one MOD update (Definition 3) at its time instant,
// first processing every pending intersection event before the update
// time — exactly the event loop of Section 5. Updates must arrive
// chronologically.
func (e *Engine) ApplyUpdate(u mod.Update) error {
	if u.Tau < e.sw.Now() {
		return fmt.Errorf("query: update at %g before sweep time %g", u.Tau, e.sw.Now())
	}
	if u.Tau > e.hi {
		return fmt.Errorf("query: update at %g beyond window end %g", u.Tau, e.hi)
	}
	if err := e.RunTo(u.Tau); err != nil {
		return err
	}
	e.updatesApplied++
	switch u.Kind {
	case mod.KindNew:
		if u.O > mod.MaxOID {
			return fmt.Errorf("%w: %s", ErrBadOID, u.O)
		}
		tr := trajectory.Linear(u.Tau, u.A, u.B)
		e.trajs[u.O] = tr
		return e.insertObject(u.O, tr, u.Tau, piecewise.Func{})
	case mod.KindTerminate:
		tr, ok := e.trajs[u.O]
		if !ok {
			return fmt.Errorf("query: terminate unknown object %s", u.O)
		}
		nt, err := tr.Terminate(u.Tau)
		if err != nil {
			return err
		}
		e.trajs[u.O] = nt
		if id := uint64(u.O); e.sw.Contains(id) {
			return e.sw.RemoveCurve(id)
		}
		return nil
	case mod.KindChDir:
		tr, ok := e.trajs[u.O]
		if !ok {
			return fmt.Errorf("query: chdir unknown object %s", u.O)
		}
		nt, err := tr.ChDir(u.Tau, u.A)
		if err != nil {
			return err
		}
		e.trajs[u.O] = nt
		id := uint64(u.O)
		if !e.sw.Contains(id) {
			return nil
		}
		cf, err := e.f.Curve(nt, u.Tau, e.hi)
		if err != nil {
			return err
		}
		return e.sw.ReplaceCurve(id, cf)
	default:
		return fmt.Errorf("query: unknown update kind %v", u.Kind)
	}
}

// UpdatesApplied reports how many updates the engine has ingested.
func (e *Engine) UpdatesApplied() int { return e.updatesApplied }

// ReplaceGDistance swaps the engine's generalized distance — the
// Theorem 10 case of a chdir on the query trajectory. The current
// precedence relation stays valid (old and new g-distances agree up to
// now), so no re-sort happens: every curve is rebuilt and all adjacency
// events are recomputed in O(N) sweep work.
func (e *Engine) ReplaceGDistance(f gdist.GDistance) error {
	e.f = f
	now := e.sw.Now()
	replacement := make(map[uint64]piecewise.Func)
	for o, tr := range e.trajs {
		id := uint64(o)
		if !e.sw.Contains(id) {
			continue
		}
		cf, err := e.f.Curve(tr, now, e.hi)
		if err != nil {
			return err
		}
		replacement[id] = cf
	}
	// Constant curves are unaffected but ReplaceAll wants the full set.
	for _, id := range e.sw.Order() {
		if IsConstID(id) {
			cf, _ := e.sw.Curve(id)
			replacement[id] = cf
		}
	}
	return e.sw.ReplaceAll(replacement)
}
