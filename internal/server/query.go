package server

// The one request path of the /query endpoints (see the package
// comment). handleQuery is where outside input enters the query engine,
// so request limits and a per-request stage record belong there.

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/bead"
	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
)

// queryRequest is the body of one /query endpoint.
type queryRequest interface {
	// question is what check reads of the body and what the
	// slow-query record reports.
	question() question
	// ask puts the checked question to the backend; vmax is the
	// default speed bound for objects without a declared one
	// (negative: require declarations).
	ask(be Backend, vmax float64) (reply, error)
}

// question is the part of a /query body check reads. A field the
// endpoint does not take stays zero, which passes its check.
type question struct {
	lo, hi   float64
	point    []float64
	hasPoint bool // k-NN, within and possibly-within ask about a point
	radius   float64
	vmax     *float64 // the body's default speed bound; nil if omitted or not taken
	k        int      // for the slow-query record only
}

// reply is the backend's answer to a checked question: an answer set
// with the sweep's event count (0 for possibly-within, which is not a
// sweep), or an alibi certificate; and the tau of the snapshot it was
// computed over.
type reply struct {
	set    *query.AnswerSet
	alibi  *bead.Result
	events int
	tau    float64
}

// queryEndpoints makes the body of each /query endpoint, by path.
var queryEndpoints = map[string]func() queryRequest{
	"/query/knn":             func() queryRequest { return new(knnRequest) },
	"/query/within":          func() queryRequest { return new(withinRequest) },
	"/query/alibi":           func() queryRequest { return new(alibiRequest) },
	"/query/possibly-within": func() queryRequest { return new(possiblyWithinRequest) },
}

// handleQuery registers the /query endpoint at path, whose body
// newRequest makes.
func (s *Server) handleQuery(path string, newRequest func() queryRequest) {
	s.handle("POST "+path, func(w http.ResponseWriter, r *http.Request) {
		req := newRequest()
		vmax, err := readQuery(r.Body, req, s.dim)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err, nil)
			return
		}
		start := time.Now()
		rep, err := req.ask(s.be, vmax)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err, nil)
			return
		}
		s.answer(w, path, req.question(), rep, start)
	})
}

// readQuery decodes body into req and checks its question against a
// database of dimension dim. It returns the default speed bound the
// backend takes.
func readQuery(body io.Reader, req queryRequest, dim int) (float64, error) {
	if err := json.NewDecoder(body).Decode(req); err != nil {
		return 0, fmt.Errorf("decode query: %w", err)
	}
	return req.question().check(dim)
}

// check refuses a question the engine must not see: a point of the
// wrong dimension, a negative radius, or a non-finite window bound,
// radius or point component (a non-finite value either derails the
// sweep or produces an answer JSON cannot encode), and then resolves
// the optional speed bound (defaultVmax).
func (q question) check(dim int) (float64, error) {
	if q.hasPoint && len(q.point) != dim {
		return 0, fmt.Errorf("point has %d components, database dim %d", len(q.point), dim)
	}
	if q.radius < 0 {
		return 0, errors.New("negative radius")
	}
	if err := cmp.Or(finite("lo", q.lo), finite("hi", q.hi), finite("radius", q.radius), finiteVec("point", q.point)); err != nil {
		return 0, err
	}
	return defaultVmax(q.vmax)
}

// finite rejects a NaN or ±Inf request parameter. Mirrors the /watch
// body validation (sub.Query normalization).
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s is %g, want finite", name, v)
	}
	return nil
}

// finiteVec is finite over a point's components.
func finiteVec(name string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s[%d] is %g, want finite", name, i, x)
		}
	}
	return nil
}

// defaultVmax maps the optional wire field to the backend's sentinel
// convention (negative = require declarations) and validates it.
func defaultVmax(v *float64) (float64, error) {
	if v == nil {
		return -1, nil
	}
	if err := finite("vmax", *v); err != nil {
		return 0, err
	}
	if *v < 0 {
		return 0, fmt.Errorf("vmax is %g, want >= 0", *v)
	}
	return *v, nil
}

// answer is the one tail of every /query answer. It classifies the
// window against the tau of the snapshot the backend answered over, not
// a re-read of the live Tau() (an update landing mid-query must not
// relabel the window the answer was computed over), writes the answer,
// and then logs the slow-query record, so the record's time covers
// encoding and the write.
func (s *Server) answer(w http.ResponseWriter, endpoint string, q question, rep reply, start time.Time) {
	cls, _ := query.Classify(q.lo, q.hi, rep.tau)
	rec := slowQueryRecord{
		Endpoint: endpoint, Lo: q.lo, Hi: q.hi, K: q.k, Radius: q.radius,
		Events: rep.events, Tau: rep.tau, Class: cls.String(),
	}
	if res := rep.alibi; res != nil {
		out := alibiJSON{Possible: res.Possible, Checked: res.Checked, Pruned: res.Pruned, Tau: rep.tau, Class: rec.Class}
		if res.Possible {
			at := res.At
			out.At = &at
		}
		rec.Bytes = s.ok(w, out)
	} else {
		rec.Objects, rec.Bytes = s.okAnswer(w, rep.set, cls, rep.tau, rep.events)
	}
	s.logSlowQuery(time.Since(start), rec)
}

// slowQueryRecord is one structured slow-query log line (logged as
// "SLOWQUERY {json}").
type slowQueryRecord struct {
	Endpoint string  `json:"endpoint"`
	Ms       float64 `json:"ms"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	K        int     `json:"k,omitempty"`
	Radius   float64 `json:"radius,omitempty"`
	Events   int     `json:"events"`
	Tau      float64 `json:"tau"`
	Class    string  `json:"class"`
	Objects  int     `json:"objects,omitempty"` // objects the answer names
	Bytes    int     `json:"bytes,omitempty"`   // answer bytes written
}

// logSlowQuery emits rec if the request exceeded the threshold.
func (s *Server) logSlowQuery(elapsed time.Duration, rec slowQueryRecord) {
	if s.slowQuery <= 0 || elapsed < s.slowQuery || s.log == nil {
		return
	}
	rec.Ms = float64(elapsed.Nanoseconds()) / 1e6
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.log.Printf("SLOWQUERY %s", data)
}

// knnRequest is the body of /query/knn.
type knnRequest struct {
	K     int       `json:"k"`
	Lo    float64   `json:"lo"`
	Hi    float64   `json:"hi"`
	Point []float64 `json:"point"`
}

func (r *knnRequest) question() question {
	return question{lo: r.Lo, hi: r.Hi, point: r.Point, hasPoint: true, k: r.K}
}

func (r *knnRequest) ask(be Backend, _ float64) (reply, error) {
	ans, st, tau, err := be.KNN(gdist.PointSq{Point: geom.Vec(r.Point)}, r.K, r.Lo, r.Hi)
	return reply{set: ans, events: st.Events, tau: tau}, err
}

// withinRequest is the body of /query/within.
type withinRequest struct {
	Radius float64   `json:"radius"`
	Lo     float64   `json:"lo"`
	Hi     float64   `json:"hi"`
	Point  []float64 `json:"point"`
}

func (r *withinRequest) question() question {
	return question{lo: r.Lo, hi: r.Hi, point: r.Point, hasPoint: true, radius: r.Radius}
}

func (r *withinRequest) ask(be Backend, _ float64) (reply, error) {
	ans, st, tau, err := be.Within(gdist.PointSq{Point: geom.Vec(r.Point)}, r.Radius*r.Radius, r.Lo, r.Hi)
	return reply{set: ans, events: st.Events, tau: tau}, err
}

// alibiRequest is the body of /query/alibi. Vmax is the default speed
// bound for objects without a declared one (mod.KindBound); omitting it
// requires every involved object to carry a declaration.
type alibiRequest struct {
	O1   mod.OID  `json:"o1"`
	O2   mod.OID  `json:"o2"`
	Lo   float64  `json:"lo"`
	Hi   float64  `json:"hi"`
	Vmax *float64 `json:"vmax"`
}

func (r *alibiRequest) question() question {
	return question{lo: r.Lo, hi: r.Hi, vmax: r.Vmax}
}

func (r *alibiRequest) ask(be Backend, vmax float64) (reply, error) {
	res, tau, err := be.Alibi(r.O1, r.O2, r.Lo, r.Hi, vmax)
	return reply{alibi: &res, tau: tau}, err
}

// alibiJSON is the wire form of a bead.Result: a certificate, not an
// interval set — Possible=false is a proof the two objects could not
// have met anywhere in the window.
type alibiJSON struct {
	Possible bool     `json:"possible"`
	At       *float64 `json:"at,omitempty"` // earliest possible meeting
	Checked  int      `json:"checked"`      // bead-pair windows examined
	Pruned   int      `json:"pruned"`       // of those, rejected without the kernel
	Tau      float64  `json:"tau"`
	Class    string   `json:"class"`
}

// possiblyWithinRequest is the body of /query/possibly-within.
type possiblyWithinRequest struct {
	Radius float64   `json:"radius"`
	Lo     float64   `json:"lo"`
	Hi     float64   `json:"hi"`
	Point  []float64 `json:"point"`
	Vmax   *float64  `json:"vmax"`
}

func (r *possiblyWithinRequest) question() question {
	return question{lo: r.Lo, hi: r.Hi, point: r.Point, hasPoint: true, radius: r.Radius, vmax: r.Vmax}
}

func (r *possiblyWithinRequest) ask(be Backend, vmax float64) (reply, error) {
	ans, tau, err := be.PossiblyWithin(geom.Vec(r.Point), r.Radius, r.Lo, r.Hi, vmax)
	return reply{set: ans, tau: tau}, err
}
