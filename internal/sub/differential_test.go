package sub_test

// Delta-stream equivalence harness: seeded random update streams driven
// through a sharded engine (P=1 and P=4) with a set of random k-NN and
// within subscriptions attached. After every update the deltas are
// replayed client-side and the replayed answer is compared with a fresh
// re-evaluation of the query over the engine's current snapshot — a
// brand-new plane-sweep session sharing none of the registry's
// incremental state. Agreement after every update across hundreds of
// scenarios is the evidence that the materialized answers are exactly
// the answers a client would get by re-asking.
//
// Besides the general generator there are three families aimed at what
// the pool rule has to get right with no heuristic to absorb it: a
// mostly resting population, k or more objects resting exactly on a
// k-NN query point when its pool is built (the k-th starting value is
// 0 and ties with the pool's sentinel), and k above the live
// population.
//
// MOD_SCENARIOS overrides the per-family scenario count (CI runs 500
// under -race; each scenario runs at P=1 and P=4).

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sub"
)

// subOracle re-evaluates q from scratch over snap: a fresh engine
// seeded just past the snapshot's last update. This is what the
// registry's replayed answer must equal at every ack point.
func subOracle(snap *mod.DB, q sub.Query) ([]mod.OID, error) {
	lo := math.Nextafter(snap.Tau(), math.Inf(1))
	if q.Hi <= lo {
		return nil, nil
	}
	e, err := query.NewEngine(query.EngineConfig{
		F: gdist.PointSq{Point: q.Point}, Lo: lo, Hi: q.Hi,
	})
	if err != nil {
		return nil, err
	}
	var out func() []mod.OID
	if q.Kind == sub.KNN {
		knn := query.NewKNN(q.K)
		if err := e.AddEvaluator(knn); err != nil {
			return nil, err
		}
		out = knn.Current
	} else {
		w := query.NewWithin(q.Radius * q.Radius)
		if err := e.AddEvaluator(w); err != nil {
			return nil, err
		}
		out = w.Current
	}
	if err := e.Seed(snap.Trajectories()); err != nil {
		return nil, err
	}
	return out(), nil
}

// subClient replays one stream's deltas the way a consumer would.
type subClient struct {
	st    *sub.Stream
	q     sub.Query
	label string
	set   map[mod.OID]bool
	order []mod.OID
	done  bool
}

func newSubClient(st *sub.Stream, label string) *subClient {
	c := &subClient{st: st, q: st.Query(), label: label, set: map[mod.OID]bool{}}
	_, initial := st.Initial()
	for _, o := range initial {
		c.set[o] = true
	}
	c.order = append(c.order, initial...)
	return c
}

// step drains and replays pending deltas; it returns an error on a
// malformed delta (double add, absent remove, missing k-NN order).
func (c *subClient) step() error {
	for {
		d, ok := c.st.Pop()
		if !ok {
			return nil
		}
		if d.Resync {
			c.set = map[mod.OID]bool{}
			for _, o := range d.Add {
				c.set[o] = true
			}
			c.order = append(c.order[:0], d.Add...)
			if c.q.Kind == sub.KNN {
				c.order = append(c.order[:0], d.Order...)
			}
		} else {
			for _, o := range d.Remove {
				if !c.set[o] {
					return fmt.Errorf("%s: delta removes absent %s", c.label, o)
				}
				delete(c.set, o)
			}
			for _, o := range d.Add {
				if c.set[o] {
					return fmt.Errorf("%s: delta re-adds %s", c.label, o)
				}
				c.set[o] = true
			}
			if c.q.Kind == sub.KNN {
				if d.Order == nil && (len(d.Add) > 0 || len(d.Remove) > 0) {
					return fmt.Errorf("%s: k-NN membership delta without order", c.label)
				}
				if d.Order != nil {
					c.order = append(c.order[:0], d.Order...)
				}
			}
		}
		if d.Done {
			c.done = true
			return nil
		}
	}
}

// current is the replayed answer in oracle form.
func (c *subClient) current() []mod.OID {
	if c.q.Kind == sub.KNN {
		return c.order
	}
	out := make([]mod.OID, 0, len(c.set))
	for o := range c.set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func oidsMatch(a, b []mod.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subScenario is one random workload, fully determined by its seed.
type subScenario struct {
	seed    int64
	initial []mod.Update // object creations applied before subscribing
	churn   []mod.Update // the stream driven through live subscriptions
	mid     int          // churn index at which the late queries subscribe
	early   []sub.Query
	late    []sub.Query
	batched bool // drive churn through ApplyBatch (parallel shard groups)
}

// Scenario families. famGeneral is the original generator and draws
// the same random sequence it always did.
const (
	famGeneral    = iota
	famStationary // four objects in five rest, and turns mostly stop
	famColocated  // 4-8 objects rest on the point every k-NN query asks about
	famFewerThanK // every k-NN asks for more neighbours than are alive at the start
	numFamilies
)

var familyNames = [numFamilies]string{"general", "stationary-majority", "co-located", "k>live"}

func makeSubScenario(seed int64, family int) subScenario {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(15)
	m := 12 + rng.Intn(39)
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	vel := func() geom.Vec {
		if family == famStationary && rng.Intn(5) > 0 {
			return geom.Of(0, 0)
		}
		return vec(6)
	}
	sc := subScenario{seed: seed, batched: rng.Intn(3) == 0}
	tau := 0.5
	for i := 0; i < n; i++ {
		sc.initial = append(sc.initial, mod.New(mod.OID(i+1), tau, vel(), vec(120)))
		tau += 0.1 + 0.5*rng.Float64()
	}
	var onPoint geom.Vec
	if family == famColocated {
		onPoint = vec(100)
		for c := 4 + rng.Intn(5); c > 0; c-- {
			n++
			sc.initial = append(sc.initial, mod.New(mod.OID(n), tau, geom.Of(0, 0), onPoint))
			tau += 0.1 + 0.5*rng.Float64()
		}
	}
	next := mod.OID(n + 1)
	dead := make(map[mod.OID]bool)
	for i := 0; i < m; i++ {
		o := mod.OID(rng.Intn(n) + 1)
		switch {
		case rng.Float64() < 0.12:
			sc.churn = append(sc.churn, mod.New(next, tau, vel(), vec(120)))
			next++
		case rng.Float64() < 0.12 && !dead[o] && len(dead) < n-2:
			dead[o] = true
			sc.churn = append(sc.churn, mod.Terminate(o, tau))
		case !dead[o]:
			sc.churn = append(sc.churn, mod.ChDir(o, tau, vel()))
		default:
			continue
		}
		tau += 0.1 + 0.5*rng.Float64()
	}
	sc.mid = len(sc.churn) / 2
	// Horizons: mostly past the whole stream (the subscription outlives
	// the scenario), some landing inside it (exercising the horizon
	// completion path mid-stream).
	horizon := func() float64 {
		if rng.Float64() < 0.3 {
			return tau * (0.3 + 0.6*rng.Float64())
		}
		return tau + 50 + 100*rng.Float64()
	}
	mkQuery := func() sub.Query {
		if rng.Intn(2) == 0 {
			q := sub.Query{Kind: sub.KNN, K: 1 + rng.Intn(4), Point: vec(100), Hi: horizon()}
			switch family {
			case famColocated:
				q.Point = onPoint
			case famFewerThanK:
				q.K += n
			}
			return q
		}
		r := 10 + 60*rng.Float64()
		return sub.Query{Kind: sub.Within, Radius: r, Point: vec(100), Hi: horizon()}
	}
	for i := 0; i < 2+rng.Intn(3); i++ {
		sc.early = append(sc.early, mkQuery())
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		sc.late = append(sc.late, mkQuery())
	}
	return sc
}

// runSubScenario drives one scenario at partition count p, checking
// every live client against the oracle after every update. Returns a
// divergence description ("" when equivalent) or a hard error.
func runSubScenario(sc subScenario, p int) (string, error) {
	eng, err := shard.New(shard.Config{Shards: p, Dim: 2, Tau0: -1})
	if err != nil {
		return "", err
	}
	for _, u := range sc.initial {
		if err := eng.Apply(u); err != nil {
			return "", fmt.Errorf("initial apply %s: %w", u, err)
		}
	}
	reg := sub.NewRegistry(eng)
	defer reg.Close()

	var clients []*subClient
	subscribe := func(qs []sub.Query, tag string) error {
		for i, q := range qs {
			st, err := reg.Subscribe(q)
			if errors.Is(err, sub.ErrHorizon) {
				// A short-horizon query subscribed after the stream
				// already passed its window; legitimately rejected.
				continue
			}
			if err != nil {
				return fmt.Errorf("subscribe %s[%d]: %w", tag, i, err)
			}
			clients = append(clients, newSubClient(st, fmt.Sprintf("%s[%d]", tag, i)))
		}
		return nil
	}
	if err := subscribe(sc.early, "early"); err != nil {
		return "", err
	}

	check := func(step string) (string, error) {
		reg.Sync()
		snap := eng.Snapshot()
		for _, c := range clients {
			if c.done {
				continue
			}
			if err := c.step(); err != nil {
				return "", fmt.Errorf("%s: %w", step, err)
			}
			if c.done {
				continue
			}
			want, err := subOracle(snap, c.q)
			if err != nil {
				return "", fmt.Errorf("oracle %s: %w", c.label, err)
			}
			if got := c.current(); !oidsMatch(got, want) {
				return fmt.Sprintf("P=%d %s %s: replayed=%v oracle=%v (query %+v)",
					p, step, c.label, got, want, c.q), nil
			}
		}
		return "", nil
	}

	if d, err := check("post-subscribe"); d != "" || err != nil {
		return d, err
	}
	// Batched scenarios drive the stream in chunks through ApplyBatch:
	// the per-shard groups apply in parallel, so the registry observes a
	// cross-shard interleaving of the chronological stream — the
	// out-of-order tolerance the listener fan-in demands.
	chunk := 1
	if sc.batched {
		chunk = 4
	}
	lateDone := false
	for i := 0; i < len(sc.churn); i += chunk {
		if i >= sc.mid && !lateDone {
			lateDone = true
			if err := subscribe(sc.late, "late"); err != nil {
				return "", err
			}
		}
		end := i + chunk
		if end > len(sc.churn) {
			end = len(sc.churn)
		}
		if sc.batched {
			if _, err := eng.ApplyBatch(sc.churn[i:end]); err != nil {
				return "", fmt.Errorf("churn batch [%d,%d): %w", i, end, err)
			}
		} else if err := eng.Apply(sc.churn[i]); err != nil {
			return "", fmt.Errorf("churn apply %s: %w", sc.churn[i], err)
		}
		if d, err := check(fmt.Sprintf("after churn[%d:%d)", i, end)); d != "" || err != nil {
			return d, err
		}
	}
	return "", nil
}

func TestDifferentialSubscriptionsVsOracle(t *testing.T) {
	scenarios := 80
	if s := os.Getenv("MOD_SCENARIOS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("MOD_SCENARIOS=%q: %v", s, err)
		}
		scenarios = n
	}
	const baseSeed = 731000
	failures := 0
	for i := 0; i < scenarios*numFamilies; i++ {
		seed, family := baseSeed+int64(i%scenarios), i/scenarios
		sc := makeSubScenario(seed, family)
		for _, p := range []int{1, 4} {
			d, err := runSubScenario(sc, p)
			if err != nil {
				t.Fatalf("seed %d (%s) P=%d: %v", seed, familyNames[family], p, err)
			}
			if d == "" {
				continue
			}
			// Shrink the churn tail while the divergence persists.
			min, minD := sc, d
			for len(min.churn) > 1 {
				cand := min
				cand.churn = min.churn[:len(min.churn)-1]
				if cand.mid > len(cand.churn) {
					cand.mid = len(cand.churn)
				}
				cd, cerr := runSubScenario(cand, p)
				if cerr != nil || cd == "" {
					break
				}
				min, minD = cand, cd
			}
			t.Errorf("seed %d (%s) P=%d diverges: %s\nshrunk to %d churn updates (of %d): replay with makeSubScenario(%d, %d), churn[:%d]",
				seed, familyNames[family], p, minD, len(min.churn), len(sc.churn), seed, family, len(min.churn))
			if failures++; failures >= 3 {
				t.Fatal("stopping after 3 divergent seeds")
			}
		}
	}
	if failures == 0 {
		t.Logf("%d scenarios x %d families x P in {1,4}: replayed deltas equal fresh re-evaluation at every update, zero divergences", scenarios, numFamilies)
	}
}
