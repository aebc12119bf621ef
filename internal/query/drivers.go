package query

import (
	"repro/internal/core"
	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

// TrajSource is any point-in-time view of a moving object database
// that can hand the sweep its trajectory set: a *mod.DB (which copies
// the map under its read lock) or a *mod.Snap (an immutable epoch
// snapshot sharing its map lock-free). Query drivers only ever seed
// from the view, so this is the whole surface they need.
type TrajSource interface {
	Trajectories() map[mod.OID]trajectory.Trajectory
}

// RunPast evaluates one or more queries over historical data: the window
// [lo, hi] lies entirely before the database's last-update time, so every
// trajectory (with all its recorded turns) is final and the sweep runs
// start to finish without external updates — Theorem 4's O((m+N) log N)
// regime. Creations and terminations recorded inside the window are
// replayed as insertion/expiry events. When every evaluator is a Bounder
// the sweep is bounded to the curves that can reach the part of the
// order the answers read (see RunScans); the answers are the same.
func RunPast(db TrajSource, f gdist.GDistance, lo, hi float64, evs ...Evaluator) (core.Stats, error) {
	sc, err := ScanPast(db, f, lo, hi)
	if err != nil {
		return core.Stats{}, err
	}
	run, err := RunScans([]*Scan{sc}, evs...)
	return run.Stats, err
}

// Session is the future/continuing-query driver (Theorem 5): it seeds the
// sweep from the database state at the window start and then ingests
// updates as they are issued, maintaining valid answers eagerly. Between
// updates the application may advance the sweep to "now" at any pace.
type Session struct {
	E *Engine
}

// NewSession seeds a continuing-query session over [lo, hi]. The database
// must not receive updates between the snapshot used here and the first
// Apply call (wire Apply into mod.DB.OnUpdate for a live feed).
func NewSession(db *mod.DB, f gdist.GDistance, lo, hi float64, evs ...Evaluator) (*Session, error) {
	e, err := NewEngine(EngineConfig{F: f, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		if err := e.AddEvaluator(ev); err != nil {
			return nil, err
		}
	}
	if err := e.Seed(db.Trajectories()); err != nil {
		return nil, err
	}
	return &Session{E: e}, nil
}

// Apply ingests one update (chronological).
func (s *Session) Apply(u mod.Update) error { return s.E.ApplyUpdate(u) }

// AdvanceTo processes events up to time t.
func (s *Session) AdvanceTo(t float64) error { return s.E.RunTo(t) }

// Close finalizes the session's evaluators at the window end (bounded
// windows) or the current time.
func (s *Session) Close() error { return s.E.Finish() }

// trajectoryT aliases trajectory.Trajectory for the track session.
type trajectoryT = trajectory.Trajectory
