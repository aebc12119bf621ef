package server

// Live continuing queries over HTTP: POST /watch/knn and
// POST /watch/within open server-sent-events streams of answer deltas,
// served from the backend's materialized-subscription registry
// (internal/sub). The registry maintains one shared incremental
// evaluation per distinct query and routes each database update only to
// the subscriptions it can affect, so a watch costs the server a
// bounded delivery queue, not a private plane-sweep session.
//
// Wire protocol: each SSE record carries the delta's sequence number as
// its "id:" line (monotonic per stream, so clients can detect gaps and
// resubscribe) and a JSON body:
//
//	id: 7
//	data: {"t":12.5,"add":["o3"],"remove":["o1"],"order":["o3","o2"]}
//
// The first record is always a resync (the full answer at subscription
// time); a record with "resync" replaces the client's state instead of
// patching it — the server coalesces to one when a slow client lets its
// queue overflow. "order" is the full k-NN rank order whenever
// membership or rank changed (within answers are unordered and never
// carry it). A record with "done" is terminal: horizon reached, or
// "error" says why the watch ended. Idle streams carry ": heartbeat"
// comment lines every Options.WatchHeartbeat so proxies keep the
// connection alive.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/sub"
)

// defaultWatchHeartbeat keeps idle SSE connections alive through
// proxies with conservative idle timeouts.
const defaultWatchHeartbeat = 15 * time.Second

// watchRequest is the body of /watch/knn and /watch/within (K for the
// former, Radius for the latter).
type watchRequest struct {
	K      int     `json:"k,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Hi bounds the watch; 0 means watch indefinitely (bounded by the
	// registry's maximum horizon).
	Hi    float64   `json:"hi"`
	Point []float64 `json:"point"`
}

// watchEvent is one SSE payload: a delta against the client's current
// answer set (or a full replacement when Resync is set).
type watchEvent struct {
	T      float64  `json:"t"`
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
	// Order is the complete k-NN rank order after this delta; within
	// watches never set it.
	Order  []string `json:"order,omitempty"`
	Resync bool     `json:"resync,omitempty"`
	Done   bool     `json:"done,omitempty"`
	Error  string   `json:"error,omitempty"`
}

func oidNames(os []mod.OID) []string {
	if len(os) == 0 {
		return nil
	}
	out := make([]string, len(os))
	for i, o := range os {
		out[i] = o.String()
	}
	return out
}

func deltaEvent(d sub.Delta) watchEvent {
	return watchEvent{
		T:      d.T,
		Add:    oidNames(d.Add),
		Remove: oidNames(d.Remove),
		Order:  oidNames(d.Order),
		Resync: d.Resync,
		Done:   d.Done,
		Error:  d.Err,
	}
}

// handleWatch serves the /watch endpoint of kind. The body's "k" and
// "radius" both pass to sub.Query, which reads only its kind's field.
func (s *Server) handleWatch(kind sub.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req watchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("decode watch: %w", err), nil)
			return
		}
		s.serveWatch(w, r, sub.Query{Kind: kind, K: req.K, Radius: req.Radius, Point: geom.Vec(req.Point), Hi: req.Hi})
	}
}

// serveWatch subscribes to q and pumps the stream's deltas to the
// client as SSE records until the watch completes, the client goes
// away, or the registry evicts the stream for falling behind.
func (s *Server) serveWatch(w http.ResponseWriter, r *http.Request, q sub.Query) {
	st, err := s.be.Subscriptions().Subscribe(q)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, sub.ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, code, err, nil)
		return
	}
	defer st.Cancel()

	// The metrics middleware wraps w; walk the Unwrap chain for the
	// real flusher.
	flusher, ok := findFlusher(w)
	if !ok {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"), nil)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(seq uint64, ev watchEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", seq, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// The initial full answer, as a resync record at the subscription's
	// sequence number; every later delta carries a larger id.
	lastSeq := st.InitialSeq()
	t0, initial := st.Initial()
	init := watchEvent{T: t0, Add: oidNames(initial), Resync: true}
	if q.Kind == sub.KNN {
		init.Order = init.Add
	}
	if !send(lastSeq, init) {
		return
	}

	// drain pops queued deltas into the response; it reports false when
	// a write fails (client gone).
	drain := func() bool {
		for {
			d, ok := st.Pop()
			if !ok {
				return true
			}
			lastSeq = d.Seq
			if !send(d.Seq, deltaEvent(d)) {
				return false
			}
		}
	}

	var beat <-chan time.Time
	if s.heartbeat > 0 {
		tick := time.NewTicker(s.heartbeat)
		defer tick.Stop()
		beat = tick.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-beat:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-st.Ready():
			if !drain() {
				return
			}
		case <-st.Done():
			// Deliver the queued tail (a horizon completion ends with a
			// done-marked delta in the queue), then surface an abnormal
			// termination — eviction, registry shutdown — as a terminal
			// error record so the client never sees a silent close.
			if !drain() {
				return
			}
			if err := st.Err(); err != nil {
				send(lastSeq+1, watchEvent{T: s.be.Tau(), Done: true, Error: err.Error()})
			}
			return
		}
	}
}
