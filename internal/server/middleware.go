package server

// HTTP-layer observability: a middleware wrapper that records one
// counter (endpoint, status) and one latency observation per request
// into the server's obs.Registry, plus the statusWriter it needs to
// see the response code. Kept out of the handlers so every endpoint —
// including ones added later — is covered by construction.

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// httpMetrics is the HTTP-layer instrument set.
type httpMetrics struct {
	requests *obs.CounterVec   // mod_http_requests_total{endpoint,code}
	latency  *obs.HistogramVec // mod_http_request_seconds{endpoint}
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{
		requests: reg.NewCounterVec("mod_http_requests_total",
			"HTTP requests served, by endpoint and status code", "endpoint", "code"),
		latency: reg.NewHistogramVec("mod_http_request_seconds",
			"HTTP request duration, by endpoint", obs.DefLatencyBuckets, "endpoint"),
	}
}

// endpointLabel normalizes a request to a bounded label set: the
// method plus the fixed route paths the mux serves. Unknown paths
// collapse to "other" so scanners can't inflate the label cardinality.
func (s *Server) endpointLabel(r *http.Request) string {
	if s.routes[r.URL.Path] {
		return r.Method + " " + r.URL.Path
	}
	return "other"
}

// statusWriter captures the response status for the request counter.
// It deliberately implements no optional interfaces itself; streaming
// handlers unwrap it (via Unwrap) to reach the flusher beneath.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer (http.ResponseController
// convention), so SSE streaming still finds the real http.Flusher.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// findFlusher walks the Unwrap chain to the nearest http.Flusher, the
// capability probe streaming handlers run before committing to SSE.
func findFlusher(w http.ResponseWriter) (http.Flusher, bool) {
	for {
		if f, ok := w.(http.Flusher); ok {
			return f, true
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil, false
		}
		w = u.Unwrap()
	}
}

// instrumented wraps the mux with request accounting.
func (s *Server) instrumented(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		endpoint := s.endpointLabel(r)
		s.httpMetrics.requests.With(endpoint, strconv.Itoa(sw.code)).Inc()
		s.httpMetrics.latency.With(endpoint).Observe(time.Since(start).Seconds())
	})
}
