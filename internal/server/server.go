// Package server exposes a moving object database over HTTP/JSON: a thin
// network layer for feeding chronological updates in and running
// plane-sweep queries, suitable for wiring trackers and dashboards to the
// engine. Used by cmd/modserve; handlers are plain net/http and are
// exercised with httptest.
//
// The handlers speak to a Backend rather than a *mod.DB directly, so the
// same HTTP surface serves either a single database (shard.Single) or a
// hash-partitioned sharded engine with fan-out query execution
// (shard.FromDB, selected by cmd/modserve's -shards flag). Answers are
// identical either way; see internal/shard for the merge arguments.
// Every GET endpoint reads one Backend.Snapshots() set (one immutable
// epoch snapshot per shard), so its fields describe one state even while
// writes land; GET /snapshot encodes their mod.Union.
//
// The four /query endpoints take one request path (handleQuery): each
// decodes its own body type, one check refuses a malformed question
// with a 400, and one tail classifies the window against the answer's
// snapshot tau, encodes, writes and logs the SLOWQUERY record. The two
// /watch endpoints are one handler parameterised by sub.Kind.
//
// Endpoints:
//
//	GET  /healthz                 liveness + database header
//	GET  /objects                 OIDs, tau, live count
//	GET  /object?oid=1            one trajectory (pieces + constraint syntax)
//	POST /update                  {"kind":"new|terminate|chdir","oid":..,"tau":..,"a":[..],"b":[..]}
//	POST /update/batch            JSON array of updates, or the binary batch
//	                              codec with Content-Type application/x-mod-updates
//	POST /query/knn               {"k":..,"lo":..,"hi":..,"point":[..]}
//	POST /query/within            {"radius":..,"lo":..,"hi":..,"point":[..]}
//	POST /query/alibi             {"o1":..,"o2":..,"lo":..,"hi":..,"vmax":..} —
//	                              could the two objects have met in [lo,hi],
//	                              given their samples and speed bounds?
//	POST /query/possibly-within   {"radius":..,"lo":..,"hi":..,"point":[..],"vmax":..} —
//	                              which objects could have come within radius
//	                              of point? ("vmax" is the default speed bound
//	                              for objects without a declared one; omit it
//	                              to require declarations.)
//	GET  /snapshot                the binary snapshot (mod.Snap.SaveBinary),
//	                              application/octet-stream
//	GET  /metrics                 Prometheus exposition (with Options.Metrics)
//	POST /watch/knn               SSE delta stream of a continuing k-NN query
//	POST /watch/within            SSE delta stream of a continuing within query
//
// With Options.Metrics set, every request is accounted per endpoint and
// status, query latency is observed into merge-able histograms, and
// /metrics serves the registry (Prometheus text; ?format=json for the
// expvar-style view). Options.SlowQueryThreshold turns on a structured
// slow-query log on the server's logger.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/bead"
	"repro/internal/core"
	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sub"
	"repro/internal/trajectory"
)

// Backend is the storage-and-query engine the HTTP layer serves. The
// canonical implementation is shard.Engine, which covers both the
// unsharded case (one shard adopting a mod.DB) and hash-partitioned
// parallel fan-out (-shards P in cmd/modserve); durable.Engine is the
// same engine with a journal behind every write. Keeping the handlers
// behind this interface is what lets later scaling work (batching,
// replication, alternative backends) slot in without touching the
// network layer.
type Backend interface {
	// Tau is the live aggregate last-update time, which a write's
	// acknowledgement reports.
	Tau() float64
	// Snapshots returns one immutable epoch snapshot per shard, taken
	// together: the single view every GET endpoint reads, so a response
	// never mixes states from before and after a concurrent write. The
	// set is never empty and the shards' object sets are disjoint.
	Snapshots() []*mod.Snap
	Apply(u mod.Update) error
	// ApplyBatch ingests a batch in one backend round trip (grouped by
	// shard and applied in parallel by sharded backends). It returns
	// how many updates were applied; on error the applied count is the
	// durable prefix per shard, not a rollback.
	ApplyBatch(us []mod.Update) (int, error)
	// KNN and Within evaluate the two built-in past/continuing queries
	// over [lo, hi] (fanned out across shards by sharded backends).
	// Besides the answer and the sweep work, they return the tau of the
	// snapshot the answer was computed over: under concurrent updates
	// the live Tau() keeps moving, so classifying the window against it
	// would misstate the answer's frame of reference — handlers must
	// classify against the returned tau.
	KNN(f gdist.GDistance, k int, lo, hi float64) (*query.AnswerSet, core.Stats, float64, error)
	Within(f gdist.GDistance, c float64, lo, hi float64) (*query.AnswerSet, core.Stats, float64, error)
	// Alibi and PossiblyWithin are the uncertainty queries over the
	// bead model (internal/bead): they reason about every movement
	// consistent with the recorded samples and the per-object speed
	// bounds (mod.KindBound), not just the recorded motion itself.
	// defaultVmax applies to objects without a declared bound; negative
	// means "require a declaration". Like KNN/Within they return the
	// tau of the snapshot the answer was computed over.
	Alibi(o1, o2 mod.OID, lo, hi, defaultVmax float64) (bead.Result, float64, error)
	PossiblyWithin(q geom.Vec, dist, lo, hi, defaultVmax float64) (*query.AnswerSet, float64, error)
	// Subscriptions returns the backend's materialized-subscription
	// registry — the engine behind the /watch endpoints. The registry
	// maintains every continuing query incrementally off the update
	// feed and routes deltas only to affected subscriptions, so the
	// server carries one shared evaluation per distinct query instead
	// of one sweep session per connected client.
	Subscriptions() *sub.Registry
}

// Options configures a Server beyond its backend.
type Options struct {
	// Logger receives request errors and the slow-query log; nil
	// disables logging.
	Logger *log.Logger
	// Metrics, when non-nil, turns on HTTP/query instrumentation and
	// the /metrics endpoint serving this registry.
	Metrics *obs.Registry
	// SlowQueryThreshold, when positive, logs a structured SLOWQUERY
	// line for every /query request at least this slow.
	SlowQueryThreshold time.Duration
	// WatchHeartbeat is the interval between ": heartbeat" comment
	// lines on idle /watch SSE streams, keeping proxies and clients
	// from timing the connection out. 0 means the 15s default; a
	// negative value disables heartbeats.
	WatchHeartbeat time.Duration
}

// Server wraps a Backend with HTTP handlers. Queries run on snapshots,
// so a long query never blocks the update path.
type Server struct {
	be      Backend
	dim     int // the backend's spatial dimension, which never changes
	mux     *http.ServeMux
	handler http.Handler // mux, wrapped with instrumentation when enabled
	log     *log.Logger

	routes      map[string]bool // fixed paths, for bounded endpoint labels
	httpMetrics *httpMetrics    // nil when uninstrumented
	slowQuery   time.Duration
	heartbeat   time.Duration
}

// NewWithOptions builds a server over be (wrap a plain *mod.DB with
// shard.Single(db) for the unsharded engine); the zero Options log
// nothing and serve no metrics.
func NewWithOptions(be Backend, opts Options) *Server {
	s := &Server{
		be: be, dim: be.Snapshots()[0].Dim(), mux: http.NewServeMux(), log: opts.Logger,
		routes:    make(map[string]bool),
		slowQuery: opts.SlowQueryThreshold,
		heartbeat: opts.WatchHeartbeat,
	}
	if s.heartbeat == 0 {
		s.heartbeat = defaultWatchHeartbeat
	}
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /objects", s.handleObjects)
	s.handle("GET /object", s.handleObject)
	s.handle("POST /update", s.handleUpdate)
	s.handle("POST /update/batch", s.handleUpdateBatch)
	for path, newRequest := range queryEndpoints {
		s.handleQuery(path, newRequest)
	}
	s.handle("GET /snapshot", s.handleSnapshot)
	s.handle("POST /watch/knn", s.handleWatch(sub.KNN))
	s.handle("POST /watch/within", s.handleWatch(sub.Within))
	// Create the subscription registry up front so its metric series
	// (instrumented by the backend's own Instrument call) are live
	// before the first /watch request.
	s.be.Subscriptions()
	s.handler = s.mux
	if opts.Metrics != nil {
		s.routes["/metrics"] = true
		s.mux.Handle("GET /metrics", opts.Metrics.Handler())
		s.httpMetrics = newHTTPMetrics(opts.Metrics)
		s.handler = s.instrumented(s.mux)
	}
	return s
}

// handle registers a "METHOD /path" pattern and remembers the path for
// endpoint labeling.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	if _, path, ok := strings.Cut(pattern, " "); ok {
		s.routes[path] = true
	}
	s.mux.HandleFunc(pattern, h)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// httpError is the JSON error envelope. Applied is set by the batch
// endpoint so a partially applied batch reports how far it got.
type httpError struct {
	Error   string `json:"error"`
	Applied *int   `json:"applied,omitempty"`
}

// fail writes err in the error envelope with status code; applied, if
// not nil, is how many updates of a batch were applied before it.
func (s *Server) fail(w http.ResponseWriter, code int, err error, applied *int) {
	if s.log != nil {
		s.log.Printf("http %d: %v", code, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(httpError{Error: err.Error(), Applied: applied})
}

// ok writes v as a JSON answer with status 200 and reports the bytes
// written (0 if encoding failed).
func (s *Server) ok(w http.ResponseWriter, v interface{}) int {
	// Encode before touching the ResponseWriter: json.Marshal rejects
	// values a handler let through (notably non-finite floats), and an
	// encoder writing straight to w would fail AFTER the 200 header was
	// sent, handing the client a truncated body with a success status.
	// Buffering turns an encode failure into a clean 500.
	data, err := json.Marshal(v)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err), nil)
		return 0
	}
	data = append(data, '\n')
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
	return len(data)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snaps := s.be.Snapshots()
	n := 0
	for _, sn := range snaps {
		n += sn.Len()
	}
	s.ok(w, map[string]interface{}{
		"status":  "ok",
		"dim":     s.dim,
		"tau":     mod.MaxTau(snaps),
		"objects": n,
	})
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	// One snapshot set answers all three fields, so the live count is
	// the number of listed objects that can still be updated: the
	// unterminated ones (every recorded end is <= tau).
	snaps := s.be.Snapshots()
	var oids []mod.OID
	live := 0
	for _, sn := range snaps {
		for o, tr := range sn.Trajectories() {
			oids = append(oids, o)
			if !tr.IsTerminated() {
				live++
			}
		}
	}
	slices.Sort(oids)
	out := struct {
		Tau     float64   `json:"tau"`
		Objects []mod.OID `json:"objects"`
		Live    int       `json:"live"`
	}{Tau: mod.MaxTau(snaps), Objects: oids, Live: live}
	s.ok(w, out)
}

type jsonTrajPiece struct {
	Start float64   `json:"start"`
	End   *float64  `json:"end,omitempty"`
	A     []float64 `json:"a"`
	B     []float64 `json:"b"`
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	// Full 64-bit OIDs: POST /update accepts them, so GET /object must
	// resolve them (mod.ParseOID; a narrower parse 400'd on objects
	// that exist).
	oid, err := mod.ParseOID(r.URL.Query().Get("oid"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err, nil)
		return
	}
	var tr trajectory.Trajectory
	for _, sn := range s.be.Snapshots() {
		if tr, err = sn.Traj(oid); err == nil {
			break
		}
	}
	if err != nil {
		s.fail(w, http.StatusNotFound, err, nil)
		return
	}
	var pieces []jsonTrajPiece
	for _, pc := range tr.Pieces() {
		jp := jsonTrajPiece{Start: pc.Start, A: pc.A, B: pc.B}
		if !math.IsInf(pc.End, 1) {
			end := pc.End
			jp.End = &end
		}
		pieces = append(pieces, jp)
	}
	s.ok(w, struct {
		OID        uint64          `json:"oid"`
		Pieces     []jsonTrajPiece `json:"pieces"`
		Constraint string          `json:"constraint"`
	}{OID: uint64(oid), Pieces: pieces, Constraint: tr.String()})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var u mod.Update
	if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode update: %w", err), nil)
		return
	}
	if err := s.be.Apply(u); err != nil {
		s.fail(w, updateStatus(err), err, nil)
		return
	}
	s.ok(w, map[string]interface{}{"applied": u.String(), "tau": s.be.Tau()})
}

// updateStatus maps an update error to its HTTP status: a durability
// failure is the server's (500), a malformed update the client's (400),
// and anything else a conflict with the database's state (409).
func updateStatus(err error) int {
	switch {
	case errors.Is(err, mod.ErrNotDurable):
		return http.StatusInternalServerError
	case errors.Is(err, mod.ErrBadOperation), errors.Is(err, mod.ErrDimMismatch):
		return http.StatusBadRequest
	}
	return http.StatusConflict
}

// handleUpdateBatch ingests a JSON array of updates in one request —
// the batch path that amortizes routing, locking, and (under group
// commit) fsyncs across the whole batch. The response reports how many
// updates were applied; on a partial failure the applied prefix stays
// applied (exactly as repeated POST /update would behave) and the
// error names the first rejection.
func (s *Server) handleUpdateBatch(w http.ResponseWriter, r *http.Request) {
	var us []mod.Update
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, mod.BinaryUpdatesContentType) {
		// Binary batch: the compact framed codec (see internal/mod
		// binary format docs). Decoding is strict — a frame or CRC
		// error rejects the whole batch before anything is applied,
		// unlike a torn journal tail, because an HTTP body has no
		// "crash mid-write" excuse.
		var err error
		if us, err = mod.DecodeUpdatesBinary(r.Body); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("decode binary update batch: %w", err), nil)
			return
		}
	} else if err := json.NewDecoder(r.Body).Decode(&us); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("decode update batch: %w", err), nil)
		return
	}
	n, err := s.be.ApplyBatch(us)
	if err != nil {
		s.fail(w, updateStatus(err), err, &n)
		return
	}
	s.ok(w, map[string]interface{}{"applied": n, "tau": s.be.Tau()})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap, err := mod.Union(s.be.Snapshots()...)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err, nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := snap.SaveBinary(w); err != nil && s.log != nil {
		s.log.Printf("snapshot: %v", err)
	}
}
