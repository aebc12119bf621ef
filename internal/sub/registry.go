package sub

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/eventq"
	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/trajectory"
)

// Registry materializes continuing queries over a Source and maintains
// them under its update stream.
//
// Concurrency model: the Source's update listeners run under the
// database's notification lock and must never block or re-enter the
// update path, so the listener only appends the update to a task queue.
// A single pump goroutine owns every subscription structure — the
// interest index, the wake heap, the pools — and drains that queue;
// Subscribe/Sync/stream-detach are tasks on the same queue, which
// serializes them against routing without any lock ordering between the
// registry and the database shards. Per-shard listeners fire in
// chronological order, but two shards' listeners interleave arbitrarily,
// so the pump tolerates out-of-order arrival (applyStale).
type Registry struct {
	src Source
	dim int

	qcap, maxCo int // each stream's queue bound and coalesce budget

	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []task
	closed bool

	// Everything below is owned by the pump goroutine.
	subs      map[string]*subscription
	trackedBy map[mod.OID]map[*subscription]struct{}
	interest  *interestIndex
	wake      *eventq.Heap // one entry per parked subscription, keyed by sid
	bySid     map[uint64]*subscription
	tau       float64 // highest routed update time
	epoch     uint64  // routing dedup stamp
	nextSid   uint64
	maxHi     float64 // max horizon over live subscriptions
	nStreams  int
	targets   []*subscription // per-route scratch

	snaps   []*mod.Snap // per-shard epoch snapshots; nil after a routed update
	snapTau float64     // their aggregate last-update time
	snapLo  float64     // the seed time just past it

	metrics atomic.Pointer[metrics]
	wg      sync.WaitGroup
}

type task struct {
	u  mod.Update
	up bool
	fn func()
}

// NewRegistry starts a registry over src and hooks its update stream.
// Close releases the pump goroutine.
func NewRegistry(src Source) *Registry { return newRegistry(src, queueCap, maxCoalesce) }

func newRegistry(src Source, qcap, maxCo int) *Registry {
	r := &Registry{
		src:       src,
		dim:       src.Dim(),
		qcap:      qcap,
		maxCo:     maxCo,
		subs:      make(map[string]*subscription),
		trackedBy: make(map[mod.OID]map[*subscription]struct{}),
		wake:      eventq.NewHeap(),
		bySid:     make(map[uint64]*subscription),
		tau:       src.Tau(),
	}
	r.cond = sync.NewCond(&r.mu)
	r.interest = newInterestIndex(r.dim)
	r.wg.Add(1)
	go r.pump()
	src.OnUpdate(func(u mod.Update) {
		r.mu.Lock()
		if !r.closed {
			r.tasks = append(r.tasks, task{u: u, up: true})
			r.cond.Signal()
		}
		r.mu.Unlock()
	})
	return r
}

// enqueue schedules fn on the pump; false after Close.
func (r *Registry) enqueue(fn func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.tasks = append(r.tasks, task{fn: fn})
	r.cond.Signal()
	return true
}

// pump drains the task queue until Close, then terminates every stream.
func (r *Registry) pump() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.tasks) == 0 && !r.closed {
			r.cond.Wait()
		}
		batch := r.tasks
		r.tasks = nil
		closed := r.closed
		r.mu.Unlock()
		for _, t := range batch {
			if t.up {
				r.route(t.u)
			} else {
				t.fn()
			}
		}
		if closed && len(batch) == 0 {
			for _, s := range r.subs {
				s.done = true
				for _, st := range s.streams {
					st.closeWith(ErrClosed)
				}
			}
			return
		}
	}
}

// Close stops maintenance: queued work is drained, every live stream
// terminates with ErrClosed, and the pump exits. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// Sync blocks until every update applied before the call has been
// routed — the "ack" point for delta visibility.
func (r *Registry) Sync() {
	ch := make(chan struct{})
	if !r.enqueue(func() { close(ch) }) {
		return
	}
	<-ch
}

// Counts reports live subscriptions and attached streams (post-Sync
// consistent).
func (r *Registry) Counts() (subs, streams int) {
	ch := make(chan struct{})
	if !r.enqueue(func() { subs, streams = len(r.subs), r.nStreams; close(ch) }) {
		return 0, 0
	}
	<-ch
	return subs, streams
}

// Subscribe registers a continuing query and returns its stream: the
// full answer at registration time plus deltas from there on.
// Bitwise-identical queries share one materialized subscription.
func (r *Registry) Subscribe(q Query) (*Stream, error) {
	q = q.normalized()
	if err := q.validate(r.dim); err != nil {
		return nil, err
	}
	var (
		st  *Stream
		err error
	)
	ch := make(chan struct{})
	ok := r.enqueue(func() {
		st, err = r.subscribe(q)
		close(ch)
	})
	if !ok {
		return nil, ErrClosed
	}
	<-ch
	return st, err
}

// subscribe runs on the pump.
func (r *Registry) subscribe(q Query) (*Stream, error) {
	key := q.key()
	s, ok := r.subs[key]
	if !ok {
		var err error
		s, err = r.buildSub(q)
		if err != nil {
			return nil, err
		}
		r.subs[key] = s
		if q.Hi > r.maxHi {
			r.maxHi = q.Hi
		}
	}
	st := newStream(r, s)
	st.initT = s.lastT
	st.initSeq = s.seq
	st.initial = append([]mod.OID(nil), s.cur...)
	s.streams = append(s.streams, st)
	r.nStreams++
	r.recordCounts(len(r.subs), r.nStreams)
	return st, nil
}

// detachAsync schedules a stream removal on the pump (from Cancel).
func (r *Registry) detachAsync(st *Stream) {
	r.enqueue(func() { r.dropStream(st) })
}

// dropStream unhooks one stream; the last detach tears the
// subscription down.
func (r *Registry) dropStream(st *Stream) {
	if st.detached {
		return
	}
	st.detached = true
	s := st.sub
	for i, o := range s.streams {
		if o == st {
			s.streams[i] = s.streams[len(s.streams)-1]
			s.streams = s.streams[:len(s.streams)-1]
			break
		}
	}
	r.nStreams--
	if len(s.streams) == 0 && !s.done {
		r.teardownSub(s)
	}
	r.recordCounts(len(r.subs), r.nStreams)
}

// snapshot returns the cached per-shard epoch snapshots (re-read after
// any routed update) — the views the engine's own queries read — and
// the seed time just past their aggregate last-update time.
func (r *Registry) snapshot() ([]*mod.Snap, float64) {
	if r.snaps == nil {
		r.snaps = r.src.Snapshots()
		r.snapTau = mod.MaxTau(r.snaps)
		r.snapLo = math.Nextafter(r.snapTau, math.Inf(1))
	}
	return r.snaps, r.snapLo
}

// Materialization reasons (metrics only).
const (
	buildInit = iota
	buildRefresh
	buildResync
)

// buildSub materializes a fresh subscription at the current snapshot.
func (r *Registry) buildSub(q Query) (*subscription, error) {
	_, lo := r.snapshot()
	if q.Hi <= lo {
		return nil, ErrHorizon
	}
	r.nextSid++
	s := &subscription{
		sid:      r.nextSid,
		key:      q.key(),
		q:        q,
		center:   q.Point,
		f:        gdist.PointSq{Point: q.Point},
		builtTau: math.Inf(-1),
	}
	if q.Kind == KNN {
		s.ev = query.NewKNN(q.K)
	} else {
		s.ev = query.NewWithin(q.Radius * q.Radius)
	}
	if err := r.materialize(s, buildInit); err != nil {
		return nil, err
	}
	s.answer() // seed s.cur with the initial answer
	s.lastT = r.snapTau
	r.bySid[s.sid] = s
	r.reschedule(s)
	return s, nil
}

// materialize (re)builds s's engine over the current snapshots: the
// evaluator says what its answer reads, the rank ladder turns that into
// a threshold, a sweep is seeded over the candidate pool just past the
// snapshot time, and the interest registrations are swapped. A rebuild
// at the instant of the previous build found that build refuted with
// nothing new to read, so it takes the ladder's next rung; once time has
// moved the ladder starts over. On error s is unusable (its evaluator
// has left the previous engine) and the caller drops or kills it.
// Caller guarantees snapLo < s.q.Hi.
func (r *Registry) materialize(s *subscription, reason int) error {
	snaps, lo := r.snapshot()
	if r.snapTau > s.builtTau {
		s.rung = 0
	} else {
		s.rung++
	}
	s.builtTau = r.snapTau

	eng, err := query.NewEngine(query.EngineConfig{F: s.f, Lo: lo, Hi: s.q.Hi})
	if err != nil {
		return err
	}
	if err := eng.AddEvaluator(s.ev); err != nil {
		return err
	}
	bound := s.ev.Bound()
	pool, thr := candidates(snaps, s.f, s.center, bound, s.rung, lo, s.q.Hi)
	if err := eng.Seed(pool); err != nil {
		return err
	}
	// The guard goes in after the pool: it judges a seeded order only.
	guard := query.NewGuard(thr, bound.First)
	if err := eng.AddEvaluator(guard); err != nil {
		return err
	}
	if guard.Violated() {
		// Refuted at the seed instant (starting values tied with the
		// threshold): climb before anything is swapped in.
		return r.materialize(s, reason)
	}

	// Swap in: retire the old registrations (which depend on the old
	// pool radius) before overwriting it.
	if s.eng != nil {
		r.untrackAll(s)
		r.interest.remove(s)
	}
	s.eng, s.poolR2, s.guard = eng, thr, guard
	s.tracked = make(map[mod.OID]struct{}, len(pool))
	for o := range pool {
		s.tracked[o] = struct{}{}
		r.track(o, s)
	}
	r.interest.add(s)
	r.recordBuild(len(pool), reason == buildRefresh, reason == buildResync)
	return nil
}

func (r *Registry) track(o mod.OID, s *subscription) {
	m := r.trackedBy[o]
	if m == nil {
		m = make(map[*subscription]struct{})
		r.trackedBy[o] = m
	}
	m[s] = struct{}{}
}

func (r *Registry) untrack(o mod.OID, s *subscription) {
	if m := r.trackedBy[o]; m != nil {
		delete(m, s)
		if len(m) == 0 {
			delete(r.trackedBy, o)
		}
	}
}

func (r *Registry) untrackAll(s *subscription) {
	for o := range s.tracked {
		r.untrack(o, s)
	}
}

// route feeds one database update through the interest index to the
// affected subscriptions. Wakes due at or before the update time run
// first, so their deltas carry exact kinetic event timestamps.
func (r *Registry) route(u mod.Update) {
	if u.Tau > r.tau {
		r.tau = u.Tau
	}
	r.snaps = nil
	r.processWakes(u.Tau)
	if u.Kind == mod.KindBound {
		// Speed-bound declarations feed the uncertainty layer only; the
		// authoritative trajectories — and therefore every continuing
		// query's answer — are unchanged. Routing one into a pool engine
		// would be rejected as an unknown kind and force a full resync.
		r.recordRoute(0)
		return
	}
	if len(r.subs) == 0 {
		r.recordRoute(0)
		return
	}
	r.epoch++
	r.targets = r.targets[:0]
	collect := func(s *subscription) {
		if s.done || s.routeEpoch == r.epoch {
			return
		}
		s.routeEpoch = r.epoch
		r.targets = append(r.targets, s)
	}
	if m := r.trackedBy[u.O]; m != nil {
		for s := range m {
			collect(s)
		}
	}
	if u.Kind != mod.KindTerminate {
		// Route by where the object can travel: every authoritative
		// trajectory piece overlapping [tau, maxHi], tested against the
		// interest boxes. (Terminations only matter to subscriptions
		// already tracking the object.)
		hR := math.Min(MaxHorizon, r.maxHi)
		tr, err := r.src.Traj(u.O)
		if err != nil {
			if u.Kind != mod.KindNew {
				tr = trajectory.Trajectory{}
			} else {
				tr = trajectory.Linear(u.Tau, u.A, u.B)
			}
		}
		for _, pc := range tr.Pieces() {
			t0 := math.Max(u.Tau, pc.Start)
			t1 := math.Min(hR, pc.End)
			if t1 < t0 {
				continue
			}
			r.interest.visitSegment(pc.At(t0), pc.At(t1), collect)
		}
	}
	r.recordRoute(len(r.targets))
	for _, s := range r.targets {
		r.applyToSub(s, u)
	}
	// An out-of-order update (stale globally, fresh for a lagging
	// subscription) can park a wake at an instant the stream has already
	// passed — the kinetic events between u.Tau and the high-water mark
	// only became knowable once this update's curve replacement landed.
	// Drain them now so Sync-visible answers never lag r.tau.
	r.processWakes(r.tau)
}

// processWakes advances every subscription whose next kinetic event (or
// horizon) is due at or before upTo.
func (r *Registry) processWakes(upTo float64) {
	for {
		e, ok := r.wake.Peek()
		if !ok || e.T > upTo {
			return
		}
		r.wake.Pop()
		r.recordWakeup()
		r.advanceSub(r.bySid[e.Left], e.T)
	}
}

// advanceSub steps s's sweep to t (a due event time), emitting the
// resulting delta with the exact event timestamp.
func (r *Registry) advanceSub(s *subscription, t float64) {
	if t >= s.q.Hi {
		r.finishSub(s)
		return
	}
	if err := s.eng.RunTo(t); err != nil {
		r.resyncSub(s)
		return
	}
	if s.guard.Violated() {
		r.refreshSub(s)
		return
	}
	r.emitDelta(s, t)
	r.reschedule(s)
}

// applyToSub ingests one routed update into s's pool engine.
func (r *Registry) applyToSub(s *subscription, u mod.Update) {
	if s.done {
		return
	}
	if u.Tau >= s.q.Hi {
		r.finishSub(s)
		return
	}
	if u.Tau < s.eng.Sweeper().Now() {
		r.applyStale(s, u)
		return
	}
	_, tracked := s.tracked[u.O]
	switch u.Kind {
	case mod.KindNew:
		if !tracked {
			if !reaches(s.f, trajectory.Linear(u.Tau, u.A, u.B), s.poolR2, u.Tau, s.q.Hi) {
				return
			}
			if err := s.eng.ApplyUpdate(u); err != nil {
				r.resyncSub(s)
				return
			}
			s.tracked[u.O] = struct{}{}
			r.track(u.O, s)
		}
	case mod.KindChDir:
		if tracked {
			if err := s.eng.ApplyUpdate(u); err != nil {
				r.resyncSub(s)
				return
			}
		} else {
			tr, err := r.src.Traj(u.O)
			if err != nil {
				return
			}
			if !reaches(s.f, tr, s.poolR2, u.Tau, s.q.Hi) {
				return
			}
			if err := s.eng.InsertObject(u.O, tr, u.Tau); err != nil {
				r.resyncSub(s)
				return
			}
			s.tracked[u.O] = struct{}{}
			r.track(u.O, s)
		}
	case mod.KindTerminate:
		if !tracked {
			return
		}
		if err := s.eng.ApplyUpdate(u); err != nil {
			r.resyncSub(s)
			return
		}
		delete(s.tracked, u.O)
		r.untrack(u.O, s)
	}
	if s.guard.Violated() {
		r.refreshSub(s)
		return
	}
	r.emitDelta(s, u.Tau)
	r.reschedule(s)
}

// applyStale handles an update whose time precedes the sweep's clock —
// a cross-shard interleaving, or a subscription built from a snapshot
// that already included the update. Reflected effects are skipped;
// un-reflected ones are grafted in at the current sweep time with the
// authoritative trajectory (exact: curve pieces are clip-start
// independent), falling back to a full rebuild where grafting cannot
// express the change.
func (r *Registry) applyStale(s *subscription, u mod.Update) {
	now := s.eng.Sweeper().Now()
	_, tracked := s.tracked[u.O]
	switch u.Kind {
	case mod.KindNew:
		if tracked {
			return // snapshot already carried the object
		}
		if !r.graftStale(s, u.O, now) {
			return
		}
	case mod.KindChDir:
		if tracked {
			if etr, ok := s.eng.Traj(u.O); ok && hasBreakAt(etr, u.Tau) {
				return // snapshot already carried the turn
			}
			r.resyncSub(s)
			return
		}
		if !r.graftStale(s, u.O, now) {
			return
		}
	case mod.KindTerminate:
		if !tracked {
			return
		}
		etr, ok := s.eng.Traj(u.O)
		if ok && etr.IsTerminated() && etr.End() == u.Tau { //modlint:allow floatcmp -- reflected-update check: the snapshot recorded this exact terminate instant
			return
		}
		r.resyncSub(s)
		return
	}
	if s.guard.Violated() {
		r.refreshSub(s)
		return
	}
	r.emitDelta(s, now)
	r.reschedule(s)
}

// graftStale inserts an untracked object's authoritative trajectory at
// the current sweep time; false means nothing changed (irrelevant or
// already gone) or the failure path already ran.
func (r *Registry) graftStale(s *subscription, o mod.OID, now float64) bool {
	tr, err := r.src.Traj(o)
	if err != nil || !tr.IsDefined() || tr.End() <= now {
		return false
	}
	if !reaches(s.f, tr, s.poolR2, now, s.q.Hi) {
		return false
	}
	if err := s.eng.InsertObject(o, tr, now); err != nil {
		r.resyncSub(s)
		return false
	}
	s.tracked[o] = struct{}{}
	r.track(o, s)
	return true
}

// hasBreakAt reports a piece boundary exactly at tau.
func hasBreakAt(tr trajectory.Trajectory, tau float64) bool {
	for _, b := range tr.Breaks() {
		if b == tau { //modlint:allow floatcmp -- reflected-update check: the snapshot recorded this exact chdir instant
			return true
		}
	}
	return false
}

// refreshSub rebuilds the pool after a sufficiency violation.
func (r *Registry) refreshSub(s *subscription) { r.rebuildSub(s, buildRefresh) }

// resyncSub rebuilds after an engine fault or an inexpressible stale
// update.
func (r *Registry) resyncSub(s *subscription) { r.rebuildSub(s, buildResync) }

func (r *Registry) rebuildSub(s *subscription, reason int) {
	_, lo := r.snapshot()
	if lo >= s.q.Hi {
		r.finishSub(s)
		return
	}
	if err := r.materialize(s, reason); err != nil {
		r.killSub(s, err)
		return
	}
	t := r.snapTau
	if t < s.lastT {
		t = s.lastT
	}
	r.emitDelta(s, t)
	r.reschedule(s)
}

// emitDelta diffs the evaluator's answer against the last delivered one
// and pushes the change (if any) to every stream. The no-change path
// does not allocate.
func (r *Registry) emitDelta(s *subscription, t float64) {
	add, remove, order, changed := s.answer()
	if !changed {
		return
	}
	s.seq++
	s.lastT = t
	r.deliver(s, Delta{T: t, Seq: s.seq, Add: add, Remove: remove, Order: order})
}

// deliver pushes d to every attached stream and drops the evicted.
func (r *Registry) deliver(s *subscription, d Delta) {
	coalesced, evicted := 0, 0
	var dead []*Stream
	for _, st := range s.streams {
		co, ev := st.push(d, s.cur)
		if co {
			coalesced++
		}
		if ev {
			evicted++
			dead = append(dead, st)
		}
	}
	r.recordDelta(coalesced, evicted)
	for _, st := range dead {
		r.dropStream(st)
	}
}

// finishSub closes out a subscription whose window has ended: step
// through the remaining kinetic events just short of the horizon (so
// their deltas carry true timestamps, and the wholesale curve expiry
// at the horizon itself emits no bogus "all removed" delta), then
// deliver the terminal record at the horizon.
func (r *Registry) finishSub(s *subscription) {
	if s.done {
		return
	}
	hiM := math.Nextafter(s.q.Hi, math.Inf(-1))
	for {
		t, ok := s.eng.NextEventTime()
		if !ok || t >= hiM {
			break
		}
		if err := s.eng.RunTo(t); err != nil {
			r.killSub(s, err)
			return
		}
		r.emitDelta(s, t)
	}
	s.seq++
	r.deliver(s, Delta{T: s.q.Hi, Seq: s.seq, Done: true})
	r.teardownSub(s)
}

// killSub terminates a subscription on an internal fault.
func (r *Registry) killSub(s *subscription, err error) {
	if s.done {
		return
	}
	s.seq++
	r.deliver(s, Delta{T: s.lastT, Seq: s.seq, Done: true, Err: err.Error()})
	r.teardownSub(s)
}

// teardownSub retires a subscription from every structure.
func (r *Registry) teardownSub(s *subscription) {
	if s.done {
		return
	}
	s.done = true
	r.wake.RemoveByLeft(s.sid)
	delete(r.bySid, s.sid)
	for _, st := range s.streams {
		st.detached = true
		r.nStreams--
	}
	s.streams = nil
	r.untrackAll(s)
	r.interest.remove(s)
	delete(r.subs, s.key)
	if s.q.Hi >= r.maxHi {
		r.maxHi = 0
		for _, o := range r.subs {
			if o.q.Hi > r.maxHi {
				r.maxHi = o.q.Hi
			}
		}
	}
	r.recordCounts(len(r.subs), r.nStreams)
}

// reschedule re-parks s at its next due instant: the earlier of its
// next kinetic event and its horizon. The queue holds one entry per
// subscription, so the push replaces the one s had; entries pop in
// (time, sid) order.
func (r *Registry) reschedule(s *subscription) {
	if s.done {
		return
	}
	key := s.q.Hi
	if et, ok := s.eng.NextEventTime(); ok && et < key {
		key = et
	}
	r.wake.Push(eventq.Event{T: key, Left: s.sid})
}
