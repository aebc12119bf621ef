package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bead"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
)

// The traced run: the harness builds the backend in its own process
// the way cmd/modserve does, wraps it and the HTTP handler in spans
// recorded from these files, serves it on a loopback listener and
// drives one connection of the same request stream through it. The
// untraced child gives the end-to-end numbers; this run only says
// where inside a request the time goes.

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the id of the span that caused this one, 0 for
// the client span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	// current is the server span of the request being handled. The
	// traced run has one request in flight at a time, and Backend
	// methods take no context, so this is how a backend span finds its
	// parent.
	current atomic.Pointer[span]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) open(name, req string, parent int64) *span {
	return &span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.epoch).Nanoseconds()}
}

func (t *tracer) close(s *span) {
	s.End = time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// clientSpan records the client's span of a request after the fact and
// adopts the request's server span, which ended before the client read
// the last byte.
func (t *tracer) clientSpan(name, req string, start, end time.Time) {
	s := span{ID: t.next.Add(1), Req: req, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Req == req && t.spans[i].Parent == 0 {
			t.spans[i].Parent = s.ID
			break
		}
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// middleware wraps the server's handler in a server.<endpoint> span.
// Requests without the harness's id header — the watch stream, the
// metrics scrapes — are not traced.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(reqIDHeader)
		if req == "" {
			next.ServeHTTP(w, r)
			return
		}
		s := t.open("server."+r.URL.Path, req, 0)
		t.current.Store(s)
		next.ServeHTTP(w, r)
		t.current.Store(nil)
		t.close(s)
	})
}

// tracedBackend is the server's Backend with a span around each method
// a timed request calls.
type tracedBackend struct {
	server.Backend
	t *tracer
}

func (b *tracedBackend) begin(method string) *span {
	parent := b.t.current.Load()
	if parent == nil {
		return nil // not a traced request
	}
	return b.t.open("backend."+method, parent.Req, parent.ID)
}

func (b *tracedBackend) end(s *span) {
	if s != nil {
		b.t.close(s)
	}
}

func (b *tracedBackend) Apply(u mod.Update) error {
	defer b.end(b.begin("Apply"))
	return b.Backend.Apply(u)
}

func (b *tracedBackend) ApplyBatch(us []mod.Update) (int, error) {
	defer b.end(b.begin("ApplyBatch"))
	return b.Backend.ApplyBatch(us)
}

func (b *tracedBackend) KNN(f gdist.GDistance, k int, lo, hi float64) (*query.AnswerSet, core.Stats, float64, error) {
	defer b.end(b.begin("KNN"))
	return b.Backend.KNN(f, k, lo, hi)
}

func (b *tracedBackend) Within(f gdist.GDistance, c float64, lo, hi float64) (*query.AnswerSet, core.Stats, float64, error) {
	defer b.end(b.begin("Within"))
	return b.Backend.Within(f, c, lo, hi)
}

func (b *tracedBackend) Alibi(o1, o2 mod.OID, lo, hi, defaultVmax float64) (bead.Result, float64, error) {
	defer b.end(b.begin("Alibi"))
	return b.Backend.Alibi(o1, o2, lo, hi, defaultVmax)
}

func (b *tracedBackend) PossiblyWithin(q geom.Vec, dist, lo, hi, defaultVmax float64) (*query.AnswerSet, float64, error) {
	defer b.end(b.begin("PossiblyWithin"))
	return b.Backend.PossiblyWithin(q, dist, lo, hi, defaultVmax)
}

// selfTimes returns, for every span, its duration minus the part of it
// that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// inProcess is the traced server and the engine behind it, which the
// probes reach into.
type inProcess struct {
	target *target
	engine *shard.Engine
	tracer *tracer
}

// startInProcess builds the backend as cmd/modserve does for the same
// flags — shard.FromDB over an empty database, or durable.Open with
// group commit and a checkpoint ticker — and serves it traced.
func startInProcess(dataDir string) (*inProcess, error) {
	reg := obs.NewRegistry()
	var backend server.Backend
	var engine *shard.Engine
	stopBackend := func() {}
	if dataDir != "" {
		deng, err := durable.Open(dataDir, durable.Config{Shards: shards, Dim: dim, Registry: reg, Commit: durable.CommitGroup})
		if err != nil {
			return nil, err
		}
		deng.Instrument(reg)
		done := make(chan struct{})
		var ticker sync.WaitGroup
		ticker.Add(1)
		go func() {
			defer ticker.Done()
			tick := time.NewTicker(checkpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if _, err := deng.Checkpoint(); err != nil {
						_, _ = fmt.Fprintln(os.Stderr, "benchmark: traced checkpoint:", err)
					}
				}
			}
		}()
		stopBackend = func() {
			close(done)
			ticker.Wait()
			deng.CloseSubscriptions()
			if err := deng.Close(); err != nil {
				_, _ = fmt.Fprintln(os.Stderr, "benchmark: traced engine close:", err)
			}
		}
		backend, engine = deng, deng.Engine
	} else {
		eng, err := shard.FromDB(mod.NewDB(dim, 0), shard.Config{Shards: shards})
		if err != nil {
			return nil, err
		}
		eng.Instrument(reg)
		stopBackend = eng.CloseSubscriptions
		backend, engine = eng, eng
	}
	tr := newTracer()
	srv := server.NewWithOptions(&tracedBackend{Backend: backend, t: tr}, server.Options{
		Logger: log.New(io.Discard, "", 0), Metrics: reg,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stopBackend()
		return nil, err
	}
	httpSrv := &http.Server{Handler: tr.middleware(srv)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = httpSrv.Serve(l) // returns ErrServerClosed once Close is called
	}()
	t := &target{
		base:   "http://" + l.Addr().String(),
		failed: func() error { return nil },
		stop: func() {
			_ = httpSrv.Close() // the listener is loopback-only and going away
			<-served
			stopBackend()
		},
	}
	return &inProcess{target: t, engine: engine, tracer: tr}, nil
}

// traced performs the traced run of m's workload and adds the span
// and probe metrics to r.
func (e *env) traced(ctx context.Context, r *report, res *result, m *measurement, tm timing) error {
	dataDir := ""
	if m.w.durable {
		var err error
		if dataDir, err = os.MkdirTemp(e.scratch, "traced-"); err != nil {
			return err
		}
		defer removeSettled(dataDir)
	}
	ip, err := startInProcess(dataDir)
	if err != nil {
		return err
	}
	defer ip.target.stop()
	batches, err := m.plan.pop.batches()
	if err != nil {
		return err
	}
	if err := preload(ctx, ip.target.base, batches); err != nil {
		return err
	}
	// One connection: with one request in flight, a span's parent is
	// never in doubt and self times are not blurred by queueing.
	d, err := drive(ctx, ip.target, m.plan, m.plan.lanes[:1], tm, driveHooks{span: ip.tracer.clientSpan})
	if err != nil {
		return err
	}
	spans := ip.tracer.spans
	if err := writeSpans(filepath.Join(e.root, "benchmark", "out", m.w.name+".trace.json"), spans); err != nil {
		return err
	}
	self := selfTimes(spans)
	spanMetrics(r, spans, self)
	res.TraceShares = layerShares(spans, self)
	r.set("trace.ops_per_s_ratio", 100*ratio(d.opsPerSecond(), m.drive.opsPerSecond()))
	return probe(r, ip.engine, m.plan, medianSpan(spans, "backend.KNN"))
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"unit": "ns", "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// medianSpan is the median duration, in milliseconds, of the spans
// with the given name.
func medianSpan(spans []span, name string) float64 {
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ms)
}

// spanMetrics reports the median self time of each layer's spans, per
// op: the client's (transport: loopback, HTTP framing, the client's own
// work), the server handler's (decode, validate, classify, encode) and
// the backend call under an update.
func spanMetrics(r *report, spans []span, self map[int64]int64) {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e6)
	}
	for o := op(0); o < numOps; o++ {
		if ms := byName["client."+opName[o]]; len(ms) > 0 {
			r.set("client.transport_"+opName[o]+"_ms", median(ms))
		}
		if ms := byName["server."+opPath[o]]; len(ms) > 0 {
			r.set("server."+opName[o]+"_self_ms", median(ms))
		}
	}
	r.set("shard.apply_us", 1000*median(byName["backend.Apply"]))
	r.set("shard.batch_apply_us", 1000*median(byName["backend.ApplyBatch"]))
}

// layerShares sums self time by layer — the first component of the
// span name — as a share of the client spans' total. The shares of a
// well-formed trace add up to 1.
func layerShares(spans []span, self map[int64]int64) map[string]float64 {
	total := 0.0
	shares := map[string]float64{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		shares[layer] += float64(self[s.ID])
		if s.Parent == 0 {
			total += float64(s.End - s.Start)
		}
	}
	for layer := range shares {
		shares[layer] /= total
	}
	return shares
}
