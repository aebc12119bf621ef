package sub

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/trajectory"
)

// single serves one database as a Source: its epoch snapshot is the
// whole snapshot set.
type single struct{ *mod.DB }

func (s single) Snapshots() []*mod.Snap { return []*mod.Snap{s.EpochSnapshot()} }

// oracle evaluates the query fresh over the database's current state: a
// new engine seeded just past the last update, exactly what the
// registry's materialized answer must equal at every ack point.
func oracle(t *testing.T, db *mod.DB, q Query) []mod.OID {
	t.Helper()
	snap := db.Snapshot()
	lo := math.Nextafter(snap.Tau(), math.Inf(1))
	if q.Hi <= lo {
		return nil
	}
	e, err := query.NewEngine(query.EngineConfig{
		F: gdist.PointSq{Point: q.Point}, Lo: lo, Hi: q.Hi,
	})
	if err != nil {
		t.Fatalf("oracle engine: %v", err)
	}
	var out func() []mod.OID
	if q.Kind == KNN {
		knn := query.NewKNN(q.K)
		if err := e.AddEvaluator(knn); err != nil {
			t.Fatalf("oracle knn: %v", err)
		}
		out = knn.Current
	} else {
		w := query.NewWithin(q.Radius * q.Radius)
		if err := e.AddEvaluator(w); err != nil {
			t.Fatalf("oracle within: %v", err)
		}
		out = w.Current
	}
	if err := e.Seed(snap.Trajectories()); err != nil {
		t.Fatalf("oracle seed: %v", err)
	}
	return out()
}

// replay folds a delta stream onto the initial answer.
type replay struct {
	kind  Kind
	set   map[mod.OID]bool
	order []mod.OID
}

func newReplay(kind Kind, initial []mod.OID) *replay {
	r := &replay{kind: kind, set: make(map[mod.OID]bool)}
	for _, o := range initial {
		r.set[o] = true
	}
	r.order = append(r.order, initial...)
	return r
}

func (r *replay) apply(t *testing.T, d Delta) {
	t.Helper()
	if d.Resync {
		r.set = make(map[mod.OID]bool)
		for _, o := range d.Add {
			r.set[o] = true
		}
		r.order = append(r.order[:0], d.Add...)
		if r.kind == KNN {
			r.order = append(r.order[:0], d.Order...)
		}
		return
	}
	for _, o := range d.Remove {
		if !r.set[o] {
			t.Fatalf("delta removes %s which is not in the answer", o)
		}
		delete(r.set, o)
	}
	for _, o := range d.Add {
		if r.set[o] {
			t.Fatalf("delta adds %s twice", o)
		}
		r.set[o] = true
	}
	if r.kind == KNN {
		if d.Order == nil && (len(d.Add) > 0 || len(d.Remove) > 0) {
			t.Fatalf("k-NN membership delta without order: %+v", d)
		}
		if d.Order != nil {
			r.order = append(r.order[:0], d.Order...)
		}
	}
}

// current returns the replayed answer in oracle form (rank order for
// k-NN, ascending for within).
func (r *replay) current() []mod.OID {
	if r.kind == KNN {
		return r.order
	}
	out := make([]mod.OID, 0, len(r.set))
	for o := range r.set {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

func drain(st *Stream) []Delta {
	var ds []Delta
	for {
		d, ok := st.Pop()
		if !ok {
			return ds
		}
		ds = append(ds, d)
	}
}

func mustLoad(t *testing.T, db *mod.DB, o mod.OID, start float64, vel, pos []float64) {
	t.Helper()
	if err := db.Load(o, trajectory.Linear(start, vel, pos)); err != nil {
		t.Fatalf("load %d: %v", o, err)
	}
}

func mustApply(t *testing.T, db *mod.DB, u mod.Update) {
	t.Helper()
	if err := db.Apply(u); err != nil {
		t.Fatalf("apply %s: %v", u, err)
	}
}

func checkAnswer(t *testing.T, got, want []mod.OID, what string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

func TestWithinDeltasMatchOracle(t *testing.T) {
	db := mod.NewDB(2, 0)
	mustLoad(t, db, 1, 0, []float64{0, 0}, []float64{1, 1})      // inside
	mustLoad(t, db, 2, 0, []float64{0, 0}, []float64{50, 0})     // far
	mustLoad(t, db, 3, 0, []float64{-1, 0}, []float64{30, 0})    // approaching
	mustLoad(t, db, 4, 0, []float64{0.5, 0.5}, []float64{2, -2}) // leaving

	reg := NewRegistry(single{db})
	defer reg.Close()

	q := Query{Kind: Within, Radius: 5, Point: geom.Vec{0, 0}, Hi: 200}
	st, err := reg.Subscribe(q)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	_, initial := st.Initial()
	checkAnswer(t, initial, oracle(t, db, st.Query()), "initial answer")

	rp := newReplay(Within, initial)
	updates := []mod.Update{
		mod.New(5, 1, []float64{0, 0}, []float64{3, 0}),   // appears inside
		mod.ChDir(2, 2, []float64{-2, 0}),                 // far object turns toward us
		mod.Terminate(1, 3),                               // inside object dies
		mod.New(6, 4, []float64{1, 0}, []float64{-40, 0}), // distant, inbound
		mod.ChDir(5, 6, []float64{10, 0}),                 // sprints away
		mod.Terminate(3, 40),
	}
	for _, u := range updates {
		mustApply(t, db, u)
		reg.Sync()
		for _, d := range drain(st) {
			if d.Done {
				t.Fatalf("unexpected Done before horizon: %+v", d)
			}
			rp.apply(t, d)
		}
		checkAnswer(t, rp.current(), oracle(t, db, st.Query()), u.String())
	}
}

func TestKNNDeltasWithPoolRefresh(t *testing.T) {
	db := mod.NewDB(1, 0)
	mustLoad(t, db, 1, 0, []float64{0}, []float64{1})  // nearest
	mustLoad(t, db, 2, 0, []float64{0}, []float64{10}) // outside initial pool
	mustLoad(t, db, 3, 0, []float64{0}, []float64{25})

	reg := NewRegistry(single{db})
	defer reg.Close()

	q := Query{Kind: KNN, K: 1, Point: geom.Vec{0}, Hi: 100}
	st, err := reg.Subscribe(q)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	_, initial := st.Initial()
	checkAnswer(t, initial, []mod.OID{1}, "initial k-NN")

	rp := newReplay(KNN, initial)
	updates := []mod.Update{
		// Object 1 flees: its distance curve crosses the pool sentinel
		// (initial pool radius 2), forcing a refresh, and then crosses
		// object 2 at x=10 around t=10, handing the answer over.
		mod.ChDir(1, 1, []float64{1}),
		mod.New(4, 5, []float64{0}, []float64{100}),
		mod.New(5, 12, []float64{0}, []float64{99}),
	}
	for _, u := range updates {
		mustApply(t, db, u)
		reg.Sync()
		for _, d := range drain(st) {
			rp.apply(t, d)
		}
		checkAnswer(t, rp.current(), oracle(t, db, st.Query()), u.String())
	}
	if got := rp.current(); !slices.Equal(got, []mod.OID{2}) {
		t.Fatalf("after handover want answer [2], got %v", got)
	}
}

// TestKNNLadder drives a k-NN subscription up the rank ladder both ways
// it can be refuted. At the seed instant: the four nearest objects start
// at the same distance and flee, so the first threshold (the 4k-th
// starting value) ties with all of them, the sentinel sorts ahead, and
// the build must climb before it answers — no routed update would ever
// come by to notice. Later: everything under the second threshold (the
// 16th starting value) flees past it too, and the refresh starts the
// ladder over at the new instant.
func TestKNNLadder(t *testing.T) {
	db := mod.NewDB(2, 0)
	for i, dir := range [][]float64{{1, 0}, {0, 1}, {-1, 0}, {0, -1}} {
		mustLoad(t, db, mod.OID(i+1), 0, dir, dir)
	}
	for i := 0; i < 12; i++ { // 2 to 13 away, fleeing at half the speed
		mustLoad(t, db, mod.OID(5+i), 0, []float64{0.5, 0}, []float64{float64(2 + i), 0})
	}
	for i := 0; i < 44; i++ { // at rest, 50 to 93 away
		mustLoad(t, db, mod.OID(20+i), 0, []float64{0, 0}, []float64{0, float64(50 + i)})
	}
	reg := NewRegistry(single{db})
	defer reg.Close()
	instruments := obs.NewRegistry()
	reg.Instrument(instruments)

	st, err := reg.Subscribe(Query{Kind: KNN, K: 1, Point: geom.Vec{0, 0}, Hi: 1000})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	_, initial := st.Initial()
	checkAnswer(t, initial, oracle(t, db, st.Query()), "initial k-NN")
	rp := newReplay(KNN, initial)
	// Updates far outside every pool: only the wake heap and the guard
	// can keep the answer right.
	for i, tau := range []float64{30, 55, 70, 200} {
		u := mod.New(mod.OID(1000+i), tau, []float64{0, 0}, []float64{1e6, 1e6})
		mustApply(t, db, u)
		reg.Sync()
		for _, d := range drain(st) {
			rp.apply(t, d)
		}
		checkAnswer(t, rp.current(), oracle(t, db, st.Query()), u.String())
	}
	if got := rp.current(); !slices.Equal(got, []mod.OID{20}) {
		t.Fatalf("once the sixteen have fled want the nearest resting object [20], got %v", got)
	}
	if n := instruments.JSONValue()["sub_pool_refreshes_total"].(uint64); n == 0 {
		t.Error("no pool refresh recorded: the fleeing objects never crossed the sentinel")
	}
}

// TestUnchangedAnswerAllocatesNothing: re-reading an answer that did
// not change, which is what most routed updates and wake-ups do, costs
// no allocation for k-NN or within.
func TestUnchangedAnswerAllocatesNothing(t *testing.T) {
	db := mod.NewDB(2, 0)
	for i := 1; i <= 8; i++ {
		mustLoad(t, db, mod.OID(i), 0, []float64{0, 0}, []float64{float64(9 - i), 0})
	}
	reg := NewRegistry(single{db})
	defer reg.Close()
	for _, q := range []Query{
		{Kind: KNN, K: 3, Point: geom.Vec{0, 0}, Hi: 100},
		{Kind: Within, Radius: 4.5, Point: geom.Vec{0, 0}, Hi: 100},
	} {
		if _, err := reg.Subscribe(q); err != nil {
			t.Fatal(err)
		}
	}
	allocs := map[Kind]float64{}
	changed := false
	done := make(chan struct{})
	reg.enqueue(func() { // on the pump, which owns the subscriptions
		for _, s := range reg.subs {
			allocs[s.q.Kind] = testing.AllocsPerRun(100, func() {
				_, _, _, c := s.answer()
				changed = changed || c
			})
		}
		close(done)
	})
	<-done
	if changed || allocs[KNN] != 0 || allocs[Within] != 0 {
		t.Errorf("unchanged answers: changed %v, allocations k-NN %v, within %v; want false, 0, 0",
			changed, allocs[KNN], allocs[Within])
	}
}

// TestWakeTimestamps pins the wake-heap contract: kinetic events between
// updates surface as deltas stamped with the event instant, not the
// update instant that triggered processing.
func TestWakeTimestamps(t *testing.T) {
	db := mod.NewDB(1, 0)
	mustLoad(t, db, 1, 0, []float64{1}, []float64{-5}) // passes through [-2, 2] during t in [3, 7]
	mustLoad(t, db, 2, 0, []float64{0}, []float64{50}) // far bystander

	reg := NewRegistry(single{db})
	defer reg.Close()

	st, err := reg.Subscribe(Query{Kind: Within, Radius: 2, Point: geom.Vec{0}, Hi: 100})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if _, initial := st.Initial(); len(initial) != 0 {
		t.Fatalf("initially empty answer expected, got %v", initial)
	}

	// Updates far from the query region: they must not generate answer
	// deltas themselves, only advance virtual time past the crossings.
	mustApply(t, db, mod.ChDir(2, 1, []float64{0.25}))
	reg.Sync()
	if ds := drain(st); len(ds) != 0 {
		t.Fatalf("far update produced deltas: %+v", ds)
	}
	mustApply(t, db, mod.ChDir(2, 10, []float64{0}))
	reg.Sync()
	ds := drain(st)
	if len(ds) != 2 {
		t.Fatalf("want enter+exit deltas, got %+v", ds)
	}
	if math.Abs(ds[0].T-3) > 1e-9 || len(ds[0].Add) != 1 || ds[0].Add[0] != 1 {
		t.Fatalf("enter delta wrong: %+v", ds[0])
	}
	if math.Abs(ds[1].T-7) > 1e-9 || len(ds[1].Remove) != 1 || ds[1].Remove[0] != 1 {
		t.Fatalf("exit delta wrong: %+v", ds[1])
	}
	if ds[1].Seq != ds[0].Seq+1 {
		t.Fatalf("non-consecutive seq: %d then %d", ds[0].Seq, ds[1].Seq)
	}
}

func TestSubscribeValidation(t *testing.T) {
	db := mod.NewDB(2, 0)
	reg := NewRegistry(single{db})
	defer reg.Close()

	cases := []Query{
		{Kind: KNN, K: 0, Point: geom.Vec{0, 0}},
		{Kind: Within, Radius: -1, Point: geom.Vec{0, 0}},
		{Kind: Within, Radius: math.NaN(), Point: geom.Vec{0, 0}},
		{Kind: Within, Radius: math.Inf(1), Point: geom.Vec{0, 0}},
		{Kind: KNN, K: 1, Point: geom.Vec{0}},                     // dim mismatch
		{Kind: KNN, K: 1, Point: geom.Vec{math.NaN(), 0}},         // NaN component
		{Kind: KNN, K: 1, Point: geom.Vec{math.Inf(1), 0}},        // Inf component
		{Kind: KNN, K: 1, Point: geom.Vec{0, 0}, Hi: math.NaN()},  // NaN horizon
		{Kind: KNN, K: 1, Point: geom.Vec{0, 0}, Hi: math.Inf(1)}, // Inf horizon
		{Kind: KNN, K: 1, Point: geom.Vec{0, 0}, Hi: -3},          // negative horizon
		{Kind: KNN, K: 1, Point: geom.Vec{0, 0}, Hi: 2e9},         // beyond max
		{Kind: 0, Point: geom.Vec{0, 0}},                          // unknown kind
	}
	for _, q := range cases {
		if _, err := reg.Subscribe(q); err == nil {
			t.Errorf("Subscribe(%+v) accepted a malformed query", q)
		}
	}

	// A window that already ended is refused with ErrHorizon.
	mustApply(t, db, mod.New(1, 9, []float64{0, 0}, []float64{0, 0}))
	if _, err := reg.Subscribe(Query{Kind: KNN, K: 1, Point: geom.Vec{0, 0}, Hi: 5}); !errors.Is(err, ErrHorizon) {
		t.Fatalf("past-window subscribe: got %v, want ErrHorizon", err)
	}
}

func TestHorizonDone(t *testing.T) {
	db := mod.NewDB(1, 0)
	mustLoad(t, db, 1, 0, []float64{0}, []float64{1})

	reg := NewRegistry(single{db})
	defer reg.Close()

	st, err := reg.Subscribe(Query{Kind: KNN, K: 1, Point: geom.Vec{0}, Hi: 5})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	mustApply(t, db, mod.New(2, 7, []float64{0}, []float64{3}))
	reg.Sync()
	select {
	case <-st.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stream not done after horizon passed")
	}
	ds := drain(st)
	if len(ds) == 0 || !ds[len(ds)-1].Done {
		t.Fatalf("want terminal Done delta, got %+v", ds)
	}
	last := ds[len(ds)-1]
	if last.T != 5 || last.Err != "" {
		t.Fatalf("bad terminal delta: %+v", last)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("normal completion must leave nil Err, got %v", err)
	}
	if subs, streams := reg.Counts(); subs != 0 || streams != 0 {
		t.Fatalf("finished subscription not torn down: %d subs, %d streams", subs, streams)
	}
}

func TestSharedSubscriptionAndCancel(t *testing.T) {
	db := mod.NewDB(1, 0)
	mustLoad(t, db, 1, 0, []float64{0}, []float64{1})

	reg := NewRegistry(single{db})
	defer reg.Close()

	q := Query{Kind: Within, Radius: 3, Point: geom.Vec{0}, Hi: 50}
	a, err := reg.Subscribe(q)
	if err != nil {
		t.Fatalf("subscribe a: %v", err)
	}
	b, err := reg.Subscribe(q)
	if err != nil {
		t.Fatalf("subscribe b: %v", err)
	}
	if subs, streams := reg.Counts(); subs != 1 || streams != 2 {
		t.Fatalf("identical queries must share: %d subs, %d streams", subs, streams)
	}

	a.Cancel()
	if !errors.Is(a.Err(), ErrCanceled) {
		t.Fatalf("canceled stream Err = %v", a.Err())
	}
	// No delta is delivered after Cancel returns, ever.
	mustApply(t, db, mod.New(2, 1, []float64{0}, []float64{0.5}))
	reg.Sync()
	if d, ok := a.Pop(); ok {
		t.Fatalf("delta after cancel: %+v", d)
	}
	// The surviving stream still gets it.
	if ds := drain(b); len(ds) != 1 || len(ds[0].Add) != 1 || ds[0].Add[0] != 2 {
		t.Fatalf("surviving stream missed the delta: %+v", ds)
	}

	b.Cancel()
	reg.Sync()
	if subs, streams := reg.Counts(); subs != 0 || streams != 0 {
		t.Fatalf("last cancel must tear down: %d subs, %d streams", subs, streams)
	}
}

func TestSlowConsumerCoalesceAndEvict(t *testing.T) {
	db := mod.NewDB(1, 0)
	mustLoad(t, db, 1, 0, []float64{0}, []float64{1})

	reg := NewRegistryWithQueue(single{db}, 2, 1000)
	defer reg.Close()

	q := Query{Kind: Within, Radius: 10, Point: geom.Vec{0}, Hi: 1000}
	st, err := reg.Subscribe(q)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	// Flood with answer-changing updates without draining: the queue
	// must collapse to one resync carrying the full current answer.
	tau := 1.0
	next := mod.OID(10)
	for i := 0; i < 10; i++ {
		mustApply(t, db, mod.New(next, tau, []float64{0}, []float64{0.5}))
		next++
		tau++
	}
	reg.Sync()
	ds := drain(st)
	if len(ds) > 3 {
		t.Fatalf("queue cap 2 but %d deltas queued", len(ds))
	}
	sawResync := false
	_, initial := st.Initial()
	rp := newReplay(Within, initial)
	for _, d := range ds {
		sawResync = sawResync || d.Resync
		rp.apply(t, d)
	}
	if !sawResync {
		t.Fatalf("overflow produced no resync: %+v", ds)
	}
	checkAnswer(t, rp.current(), oracle(t, db, st.Query()), "replayed coalesced stream")

	// Now with a tiny coalesce budget the consumer is evicted.
	st2, err := reg.Subscribe(Query{Kind: Within, Radius: 10, Point: geom.Vec{0.5}, Hi: 1000})
	if err != nil {
		t.Fatalf("subscribe 2: %v", err)
	}
	_ = st2
	reg2 := NewRegistryWithQueue(single{db}, 1, 1)
	defer reg2.Close()
	ev, err := reg2.Subscribe(Query{Kind: Within, Radius: 10, Point: geom.Vec{0}, Hi: 1000})
	if err != nil {
		t.Fatalf("subscribe evictee: %v", err)
	}
	for i := 0; i < 10; i++ {
		mustApply(t, db, mod.New(next, tau, []float64{0}, []float64{0.25}))
		next++
		tau++
	}
	reg2.Sync()
	select {
	case <-ev.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("slow consumer not evicted")
	}
	if !errors.Is(ev.Err(), ErrSlowConsumer) {
		t.Fatalf("evicted stream Err = %v", ev.Err())
	}
	if subs, _ := reg2.Counts(); subs != 0 {
		t.Fatalf("evicting the only stream must tear down the subscription")
	}
}

func TestRegistryClose(t *testing.T) {
	db := mod.NewDB(1, 0)
	reg := NewRegistry(single{db})
	st, err := reg.Subscribe(Query{Kind: KNN, K: 1, Point: geom.Vec{0}, Hi: 10})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	reg.Close()
	reg.Close() // idempotent
	select {
	case <-st.Done():
	default:
		t.Fatal("stream not terminated by Close")
	}
	if !errors.Is(st.Err(), ErrClosed) {
		t.Fatalf("Err after Close = %v", st.Err())
	}
	if _, err := reg.Subscribe(Query{Kind: KNN, K: 1, Point: geom.Vec{0}, Hi: 10}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v", err)
	}
	// Updates after Close are dropped without blocking.
	mustApply(t, db, mod.New(1, 1, []float64{0}, []float64{1}))
}
