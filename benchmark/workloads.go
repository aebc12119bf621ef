package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/shard"
)

// op is a kind of timed request.
type op int

const (
	opKNN op = iota
	opWithin
	opPWithin
	opAlibi
	opUpdate
	opBatch
	numOps
)

var opName = [numOps]string{"knn", "within", "pwithin", "alibi", "update", "batch"}

var opPath = [numOps]string{
	"/query/knn", "/query/within", "/query/possibly-within", "/query/alibi", "/update", "/update/batch",
}

// requestVmax is the default speed bound every uncertainty request
// sends. One value for the whole run keeps every track-cache lookup of
// the static workloads a hit.
const requestVmax = 15.0

// request is one pre-generated HTTP request.
type request struct {
	op   op
	body []byte
	// The parameters of a query, which the correctness gate needs.
	k      int
	radius float64
	lo, hi float64
	point  geom.Vec
	o1, o2 mod.OID
	// updates counts the updates the request carries.
	updates int
	// update is the one update of a live-mix POST /update, which the
	// model applies when the checker walks the stream.
	update *mod.Update
}

// plan is everything a run of one workload needs, all of it made from
// the seed before the server starts.
type plan struct {
	pop *population
	// lanes holds one request sequence per connection. A connection
	// sends its next request only when the previous one is answered.
	lanes [][]request
	// watch is the body of the POST /watch/knn stream live-mix holds
	// on its second connection; nil elsewhere.
	watch []byte
	// replay is set on the static workloads: the correctness gate
	// sends the first requests of each op again after the window.
	replay bool
}

// workloadDef describes one workload. The names are fixed: later
// issues cite them.
type workloadDef struct {
	name string
	why  string
	// durable runs the server on a data directory with group commit
	// and periodic checkpoints.
	durable bool
	// slots are the two ops whose latency the end-to-end metrics
	// op1_* and op2_* report.
	slots [2]op
	// build generates the population and enough requests for tm.
	build func(seed int64, tm timing) (*plan, error)
}

var workloads = []workloadDef{
	{
		name:  "past-sweep",
		why:   "past k-NN and within over a static 2000-mover history: the core/query plane sweep does nearly all the work",
		slots: [2]op{opKNN, opWithin},
		build: buildPastSweep,
	},
	{
		name:  "uncertain-read",
		why:   "possibly-within and alibi over a static 10000-mover history: bead kernel and BeadIndex, no sweep, short requests",
		slots: [2]op{opPWithin, opAlibi},
		build: buildUncertainRead,
	},
	{
		name:    "ingest-durable",
		why:     "write-only on a data dir with group commit and checkpoints: decode, route, apply, journal, fsync wait, recovery",
		durable: true,
		slots:   [2]op{opUpdate, opBatch},
		build:   buildIngestDurable,
	},
	{
		name:  "live-mix",
		why:   "every query follows writes and a watch stream is live: pays snapshot rebuild, BeadIndex sync and sub routing",
		slots: [2]op{opKNN, opPWithin},
		build: buildLiveMix,
	},
}

// liveObjects returns the objects of db that can still be updated,
// ascending. DB.LiveAt(db.Tau()) is not that: an object terminated by
// the very last update is still defined at that instant.
func liveObjects(db *mod.DB) ([]mod.OID, error) {
	var live []mod.OID
	for _, o := range db.Objects() {
		tr, err := db.Traj(o)
		if err != nil {
			return nil, err
		}
		if !tr.IsTerminated() {
			live = append(live, o)
		}
	}
	return live, nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Stream capacities: how much each workload generates ahead of the
// window, per second of warm-up and window. A run that uses its stream
// up aborts. These are several times what the seed commit serves on two
// cores (43 requests, 230 requests, 340 cycles a writer and 39 cycles a
// second), so a later PR has room to get faster before it must raise
// them — in a change of its own, since that edits the benchmark.
const (
	pastSweepPerSecond     = 300
	uncertainReadPerSecond = 1600
	ingestCyclesPerSecond  = 1100 // per writer; a cycle is 1 batch + 4 updates
	liveMixCyclesPerSecond = 250  // a cycle is 8 updates + 2 queries
)

// capacity is how many units a stream of the given rate needs.
func capacity(perSecond int, tm timing) int {
	return perSecond * int((tm.warm+tm.window)/time.Second+1)
}

// quasi draws points of the unit cube from an additive-recurrence
// (Kronecker) sequence: point i is frac(offset + i*alpha) in each
// dimension, with Roberts' R_d choice of alpha. Query windows and
// places come from it and not from the pseudo-random stream because
// any run of consecutive points covers the cube evenly: every run then
// sees the same distribution of window lengths and places, whatever
// its seed and however many requests fit in its window, and the
// percentiles of two runs differ by what the server did, not by which
// requests they happened to draw. The seed sets the offset.
type quasi struct{ x, alpha []float64 }

func newQuasi(rng *rand.Rand, d int) *quasi {
	// phi is the positive root of x^(d+1) = x + 1.
	phi := 2.0
	for i := 0; i < 64; i++ {
		phi = math.Pow(1+phi, 1/float64(d+1))
	}
	q := &quasi{x: make([]float64, d), alpha: make([]float64, d)}
	for j := range q.x {
		q.x[j] = rng.Float64()
		q.alpha[j] = math.Pow(phi, -float64(j+1))
	}
	return q
}

// next advances the sequence and returns the point, which is only
// valid until the next call.
func (q *quasi) next() []float64 {
	for j := range q.x {
		q.x[j] = math.Mod(q.x[j]+q.alpha[j], 1)
	}
	return q.x
}

// between maps u in [0,1) to [lo,hi).
func between(u, lo, hi float64) float64 { return lo + u*(hi-lo) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite numbers and plain structs are passed in
	}
	return b
}

// queryPoint places a query in [-500,500]^2.
func queryPoint(ux, uy float64) geom.Vec {
	return geom.Of(between(ux, -500, 500), between(uy, -500, 500))
}

func knnRequest(k int, lo, hi float64, pt geom.Vec) request {
	return request{op: opKNN, k: k, lo: lo, hi: hi, point: pt,
		body: mustJSON(map[string]any{"k": k, "lo": lo, "hi": hi, "point": pt})}
}

func withinRequest(radius, lo, hi float64, pt geom.Vec) request {
	return request{op: opWithin, radius: radius, lo: lo, hi: hi, point: pt,
		body: mustJSON(map[string]any{"radius": radius, "lo": lo, "hi": hi, "point": pt})}
}

func pwithinRequest(radius, lo, hi float64, pt geom.Vec) request {
	return request{op: opPWithin, radius: radius, lo: lo, hi: hi, point: pt,
		body: mustJSON(map[string]any{"radius": radius, "lo": lo, "hi": hi, "point": pt, "vmax": requestVmax})}
}

func alibiRequest(o1, o2 mod.OID, lo, hi float64) request {
	return request{op: opAlibi, o1: o1, o2: o2, lo: lo, hi: hi,
		body: mustJSON(map[string]any{"o1": o1, "o2": o2, "lo": lo, "hi": hi, "vmax": requestVmax})}
}

// split deals one request stream to two connections, alternately.
func split(reqs []request) [][]request {
	lanes := make([][]request, 2)
	for i, r := range reqs {
		lanes[i%2] = append(lanes[i%2], r)
	}
	return lanes
}

func buildPastSweep(seed int64, tm timing) (*plan, error) {
	pop, err := buildPopulation(2000, 2000, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 2))
	knn, within := newQuasi(rng, 4), newQuasi(rng, 4)
	reqs := make([]request, capacity(pastSweepPerSecond, tm))
	for i := range reqs {
		// Window length U[1,5] ending U[5,50].
		if rng.Intn(2) == 0 {
			u := knn.next()
			hi := between(u[1], 5, 50)
			reqs[i] = knnRequest(4, hi-between(u[0], 1, 5), hi, queryPoint(u[2], u[3]))
		} else {
			u := within.next()
			hi := between(u[1], 5, 50)
			reqs[i] = withinRequest(150, hi-between(u[0], 1, 5), hi, queryPoint(u[2], u[3]))
		}
	}
	return &plan{pop: pop, lanes: split(reqs), replay: true}, nil
}

func buildUncertainRead(seed int64, tm timing) (*plan, error) {
	const n = 10000
	pop, err := buildPopulation(n, n, 0.3)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 2))
	pwithin := newQuasi(rng, 3)
	reqs := make([]request, capacity(uncertainReadPerSecond, tm))
	for i := range reqs {
		if rng.Float64() < 0.7 {
			u := pwithin.next()
			hi := between(u[0], 10, 50)
			reqs[i] = pwithinRequest(100, hi-10, hi, queryPoint(u[1], u[2]))
			continue
		}
		o1 := mod.OID(1 + rng.Intn(n))
		o2 := mod.OID(1 + rng.Intn(n-1))
		if o2 >= o1 {
			o2++
		}
		reqs[i] = alibiRequest(o1, o2, 40, 50)
	}
	return &plan{pop: pop, lanes: split(reqs), replay: true}, nil
}

// Ingest traffic: each writer repeats one binary batch of ingestBatch
// updates, then ingestSingles JSON updates.
const (
	ingestBatch   = 64
	ingestSingles = 4
	ingestPerCyc  = ingestBatch + ingestSingles
)

// ingestWriter generates the update stream of one ingest-durable
// writer. A writer only touches objects of its own shard, and update
// times interleave between the writers (writer w uses 50+(2i+w)*1e-6),
// so every shard sees a chronological stream whatever the scheduling
// and the merged streams stay chronological for the model.
type ingestWriter struct {
	rng    *rand.Rand
	w      int
	i      int // updates generated
	live   []mod.OID
	nextID mod.OID
	route  func(mod.OID) int
}

func newIngestWriters(seed int64, model *mod.DB) ([]*ingestWriter, error) {
	router, err := shard.New(shard.Config{Shards: shards, Dim: dim})
	if err != nil {
		return nil, err
	}
	ws := make([]*ingestWriter, shards)
	for w := range ws {
		ws[w] = &ingestWriter{
			rng: rand.New(rand.NewSource(seed + 10 + int64(w))), w: w,
			nextID: 1 << 20, route: router.ShardOf,
		}
	}
	live, err := liveObjects(model)
	if err != nil {
		return nil, err
	}
	for _, o := range live {
		w := router.ShardOf(o)
		ws[w].live = append(ws[w].live, o)
	}
	return ws, nil
}

func (g *ingestWriter) next() mod.Update {
	tau := 50 + float64(2*g.i+g.w)*1e-6
	g.i++
	vel := geom.Of(between(g.rng.Float64(), -10, 10), between(g.rng.Float64(), -10, 10))
	switch r := g.rng.Float64(); {
	case r < 0.05:
		for g.route(g.nextID) != g.w {
			g.nextID++
		}
		o := g.nextID
		g.nextID++
		g.live = append(g.live, o)
		return mod.New(o, tau, vel, geom.Of(between(g.rng.Float64(), -1000, 1000), between(g.rng.Float64(), -1000, 1000)))
	case r < 0.10 && len(g.live) > 1:
		i := g.rng.Intn(len(g.live))
		o := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return mod.Terminate(o, tau)
	default:
		return mod.ChDir(g.live[g.rng.Intn(len(g.live))], tau, vel)
	}
}

// cycle returns the updates of the writer's next cycle.
func (g *ingestWriter) cycle() []mod.Update {
	us := make([]mod.Update, ingestPerCyc)
	for i := range us {
		us[i] = g.next()
	}
	return us
}

// cycleRequests encodes one cycle: the first ingestBatch updates as a
// binary batch, the rest as single JSON updates.
func cycleRequests(us []mod.Update) ([]request, error) {
	var buf bytes.Buffer
	if err := mod.EncodeUpdatesBinary(&buf, us[:ingestBatch]); err != nil {
		return nil, err
	}
	reqs := []request{{op: opBatch, body: buf.Bytes(), updates: ingestBatch}}
	for _, u := range us[ingestBatch:] {
		reqs = append(reqs, request{op: opUpdate, body: mustJSON(u), updates: 1})
	}
	return reqs, nil
}

func buildIngestDurable(seed int64, tm timing) (*plan, error) {
	pop, err := buildPopulation(5000, 0, 0)
	if err != nil {
		return nil, err
	}
	ws, err := newIngestWriters(seed, pop.model)
	if err != nil {
		return nil, err
	}
	p := &plan{pop: pop, lanes: make([][]request, len(ws))}
	for w, g := range ws {
		for c := capacity(ingestCyclesPerSecond, tm); c > 0; c-- {
			reqs, err := cycleRequests(g.cycle())
			if err != nil {
				return nil, err
			}
			p.lanes[w] = append(p.lanes[w], reqs...)
		}
	}
	return p, nil
}

// ingestUpdates regenerates the updates the two writers' first
// done[w] requests carried, merged in time order. The streams are too
// long to keep next to their encoded bodies, and a writer is a pure
// function of the seed.
func ingestUpdates(seed int64, model *mod.DB, done []int) ([]mod.Update, error) {
	ws, err := newIngestWriters(seed, model)
	if err != nil {
		return nil, err
	}
	var out []mod.Update
	const perCycle = 1 + ingestSingles
	for w, g := range ws {
		for left := done[w]; left > 0; left -= perCycle {
			us := g.cycle()
			if left < perCycle {
				// The batch is the cycle's first request, then one
				// update per request.
				us = us[:ingestBatch+left-1]
			}
			out = append(out, us...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tau < out[j].Tau })
	return out, nil
}

// Live-mix traffic: a cycle is liveUpdates updates, one k-NN and one
// possibly-within.
const (
	liveUpdates = 8
	liveHot     = 400
	liveTauStep = 0.01
)

func buildLiveMix(seed int64, tm timing) (*plan, error) {
	pop, err := buildPopulation(2000, 2000, 0)
	if err != nil {
		return nil, err
	}
	// The hot set: the liveHot live objects nearest the origin when
	// the history ends. Steering them back keeps the watch at the
	// origin and the queries around it busy for the whole run, while
	// the cold objects drift away.
	tau := pop.model.Tau()
	type hot struct {
		o   mod.OID
		pos geom.Vec
		vel geom.Vec
		t   float64
	}
	var hots []hot
	live, err := liveObjects(pop.model)
	if err != nil {
		return nil, err
	}
	for _, o := range live {
		tr, err := pop.model.Traj(o)
		if err != nil {
			return nil, err
		}
		pc, err := tr.LastPiece()
		if err != nil {
			return nil, err
		}
		hots = append(hots, hot{o: o, pos: pc.At(tau), vel: pc.A, t: tau})
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].pos.Len2() < hots[j].pos.Len2() })
	if len(hots) < liveHot {
		return nil, fmt.Errorf("live-mix: only %d live objects", len(hots))
	}
	hots = hots[:liveHot]

	rng := rand.New(rand.NewSource(seed + 2))
	places := newQuasi(rng, 4)
	tau = 50
	cycles := capacity(liveMixCyclesPerSecond, tm)
	lane := make([]request, 0, cycles*(liveUpdates+2))
	for c := 0; c < cycles; c++ {
		for i := 0; i < liveUpdates; i++ {
			tau += liveTauStep
			h := &hots[rng.Intn(len(hots))]
			h.pos = h.pos.AddScaled(tau-h.t, h.vel)
			h.t = tau
			h.vel = geom.Of(between(rng.Float64(), -10, 10), between(rng.Float64(), -10, 10))
			if d := h.pos.Len(); d > 400 {
				// Head home at a random speed up to 10.
				h.vel = h.pos.Scale(-between(rng.Float64(), 2, 10) / d)
			}
			u := mod.ChDir(h.o, tau, h.vel)
			lane = append(lane, request{op: opUpdate, body: mustJSON(u), updates: 1, update: &u})
		}
		u := places.next()
		lane = append(lane,
			knnRequest(4, tau-2, tau, queryPoint(u[0], u[1])),
			pwithinRequest(100, tau-5, tau, queryPoint(u[2], u[3])))
	}
	return &plan{
		pop:   pop,
		lanes: [][]request{lane},
		watch: mustJSON(map[string]any{"k": 8, "point": geom.Of(0, 0)}),
	}, nil
}
