package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"repro/internal/bead"
	"repro/internal/cql"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/trajectory"
)

// The correctness gate compares what the server answered with oracles
// that share no code with the serving path beyond the trajectory
// algebra: cql's quantifier-elimination k-NN and within, and bead's
// branch-and-bound oracle. They run against the harness's own model of
// the database.

// replayPerOp is how many requests of each op the static workloads
// send again after the window to be checked and digested.
const replayPerOp = 48

// livePerOp caps how many kept live-mix answers of each op are checked.
const livePerOp = 48

// beadNeighbours is how many objects outside a possibly-within answer
// the oracle is asked about: those nearest the query point, where a
// missed object would be.
const beadNeighbours = 24

// interval is one closed stretch of an answer.
type interval struct{ Lo, Hi float64 }

// answer is what the three interval-set queries return: the stretches
// during which each object belongs to the answer.
type answer map[mod.OID][]interval

// members returns the objects whose intervals contain t, ascending.
func (a answer) members(t float64) []mod.OID {
	var out []mod.OID
	for o, ivs := range a {
		for _, iv := range ivs {
			if t >= iv.Lo && t <= iv.Hi {
				out = append(out, o)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func parseAnswer(body []byte) (answer, error) {
	var wire struct{ Answers map[string][]interval }
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	a := make(answer, len(wire.Answers))
	for name, ivs := range wire.Answers {
		o, err := mod.ParseOID(name)
		if err != nil {
			return nil, err
		}
		a[o] = ivs
	}
	return a, nil
}

// oracleMembers is members for the naive oracle's result.
func oracleMembers(naive cql.NNResult, t float64) []mod.OID {
	var out []mod.OID
	for o, ss := range naive {
		if ss.Contains(t) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probeGap is the narrowest stretch between two answer changes that is
// probed. The server and the oracle find crossing times with different
// roundoff, so an instant closer than this to a change is ambiguous,
// not wrong.
const probeGap = 1e-5

// compareAtProbes checks that the server's answer and the oracle's
// agree at the midpoint of every stretch between consecutive change
// times either side reports.
func compareAtProbes(r *request, a answer, naive cql.NNResult) string {
	pts := []float64{r.lo, r.hi}
	for _, ivs := range a {
		for _, iv := range ivs {
			pts = append(pts, iv.Lo, iv.Hi)
		}
	}
	for _, ss := range naive {
		for _, sp := range ss.Spans() {
			pts = append(pts, sp.Lo, sp.Hi)
		}
	}
	sort.Float64s(pts)
	for i := 0; i+1 < len(pts); i++ {
		if pts[i] < r.lo || pts[i+1] > r.hi || pts[i+1]-pts[i] <= probeGap {
			continue
		}
		t := (pts[i] + pts[i+1]) / 2
		got, want := a.members(t), oracleMembers(naive, t)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("%s %s at t=%v: server %v, oracle %v", opName[r.op], r.body, t, got, want)
		}
	}
	return ""
}

// knnOracle runs cql.KNNNaive, whose cost is quadratic in the curves
// it is given, on the part of the model that can matter: k objects
// that live through the whole window stay within some distance R of
// the query point, so an object that cql.WithinNaive says never comes
// within R is never among the k nearest.
func knnOracle(model *mod.DB, r *request) (cql.NNResult, error) {
	gamma := trajectory.Stationary(r.lo-1, r.point)
	trajs := model.Trajectories()
	var reach []float64 // per object alive all window: its largest squared distance
	for _, tr := range trajs {
		if tr.Start() > r.lo || tr.End() < r.hi {
			continue
		}
		// Squared distance to a point is convex along each linear
		// piece, so its maximum sits at a piece boundary.
		times := []float64{r.lo, r.hi}
		for _, b := range tr.Breaks() {
			if b > r.lo && b < r.hi {
				times = append(times, b)
			}
		}
		far := 0.0
		for _, t := range times {
			far = max(far, tr.MustAt(t).Dist2(r.point))
		}
		reach = append(reach, far)
	}
	pool := model
	if len(reach) >= r.k {
		sort.Float64s(reach)
		near, err := cql.WithinNaive(model, gamma, reach[r.k-1]*(1+1e-6), r.lo, r.hi)
		if err != nil {
			return nil, err
		}
		pool = mod.NewDB(dim, r.lo-1)
		for o := range near {
			if err := pool.Load(o, trajs[o]); err != nil {
				return nil, err
			}
		}
	}
	return cql.KNNNaive(pool, gamma, r.k, r.lo, r.hi)
}

// checkAnswer verifies one answered query against the model and
// returns a description of the disagreement, or "".
func checkAnswer(model *mod.DB, r *request, body []byte) (string, error) {
	switch r.op {
	case opKNN, opWithin:
		a, err := parseAnswer(body)
		if err != nil {
			return "", err
		}
		var naive cql.NNResult
		if r.op == opKNN {
			naive, err = knnOracle(model, r)
		} else {
			naive, err = cql.WithinNaive(model, trajectory.Stationary(r.lo-1, r.point), r.radius*r.radius, r.lo, r.hi)
		}
		if err != nil {
			return "", err
		}
		return compareAtProbes(r, a, naive), nil
	case opPWithin:
		a, err := parseAnswer(body)
		if err != nil {
			return "", err
		}
		return checkPWithin(model, r, a)
	case opAlibi:
		var a struct{ Possible bool }
		if err := json.Unmarshal(body, &a); err != nil {
			return "", err
		}
		t1, err := query.TrackOf(model, r.o1, requestVmax)
		if err != nil {
			return "", err
		}
		t2, err := query.TrackOf(model, r.o2, requestVmax)
		if err != nil {
			return "", err
		}
		// Unresolved means the oracle ran out of budget: no verdict,
		// no failure.
		if v := bead.NewOracle().Alibi(t1, t2, r.lo, r.hi); v != bead.Unresolved && (v == bead.Possible) != a.Possible {
			return fmt.Sprintf("alibi %s: server possible=%v, oracle %s", r.body, a.Possible, v), nil
		}
		return "", nil
	}
	return "", fmt.Errorf("no oracle for %s", opName[r.op])
}

// checkPWithin asks the bead oracle about every object the server
// reported and about the nearest objects it did not.
func checkPWithin(model *mod.DB, r *request, a answer) (string, error) {
	mid := (r.lo + r.hi) / 2
	type cand struct {
		o  mod.OID
		d2 float64
	}
	var outside []cand
	var check []mod.OID
	for o, tr := range model.Trajectories() {
		if _, in := a[o]; in {
			check = append(check, o)
			continue
		}
		if tr.DefinedAt(mid) {
			outside = append(outside, cand{o, tr.MustAt(mid).Dist2(r.point)})
		}
	}
	sort.Slice(outside, func(i, j int) bool { return outside[i].d2 < outside[j].d2 })
	for _, c := range outside[:min(len(outside), beadNeighbours)] {
		check = append(check, c.o)
	}
	oracle := bead.NewOracle()
	for _, o := range check {
		tr, err := query.TrackOf(model, o, requestVmax)
		if err != nil {
			return "", err
		}
		_, reported := a[o]
		if v := oracle.PossiblyWithin(tr, r.point, r.radius, r.lo, r.hi); v != bead.Unresolved && (v == bead.Possible) != reported {
			return fmt.Sprintf("possibly-within %s: object %s reported=%v, oracle %s", r.body, o, reported, v), nil
		}
	}
	return "", nil
}

// digestAnswer writes a canonical form of one answer, without its
// events field, into h: the work a sweep did may change from PR to PR,
// what it answered may not.
func digestAnswer(h interface{ Write([]byte) (int, error) }, body []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	delete(doc, "events")
	canon, err := json.Marshal(doc) // map keys are written sorted
	if err != nil {
		return err
	}
	_, err = h.Write(append(canon, '\n'))
	return err
}

// replayScan is how far into the stream the replay looks for its
// requests; every static mix has replayPerOp of each op well within it.
const replayScan = 1000

// checkStatic sends the first perOp requests of each op again, one at
// a time, checks each answer against its oracle and returns the sha256
// of the answers in request order.
func checkStatic(ctx context.Context, base string, model *mod.DB, lanes [][]request, perOp int) (digest string, checked int, mismatches []string, err error) {
	d := &driver{base: base}
	c := newClient()
	defer c.CloseIdleConnections()
	h := sha256.New()
	var buf bytes.Buffer
	var seen [numOps]int
	// The last lane is the shortest when the deal was uneven.
	scan := min(replayScan, len(lanes)*len(lanes[len(lanes)-1]))
	for i := 0; i < scan; i++ {
		// Lanes were dealt alternately; this walks them back in
		// stream order.
		r := &lanes[i%len(lanes)][i/len(lanes)]
		if seen[r.op] >= perOp {
			continue
		}
		seen[r.op]++
		status, err := d.do(ctx, c, r, "", &buf)
		if err != nil {
			return "", checked, mismatches, err
		}
		if status != http.StatusOK {
			return "", checked, mismatches, fmt.Errorf("replay %s: status %d", r.body, status)
		}
		if err := digestAnswer(h, buf.Bytes()); err != nil {
			return "", checked, mismatches, err
		}
		bad, err := checkAnswer(model, r, buf.Bytes())
		if err != nil {
			return "", checked, mismatches, err
		}
		checked++
		if bad != "" {
			mismatches = append(mismatches, bad)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), checked, mismatches, nil
}

// checkLive walks the writing connection's answered requests in
// order, applies each update to a copy of the model, and checks kept
// query answers — up to livePerOp of each op, spread over the window —
// against the model as it stood when they were asked: one connection
// sent them, so the server had applied exactly the updates before them.
func checkLive(model *mod.DB, reqs []request, res *laneResult) (checked int, mismatches []string, err error) {
	model = model.Snapshot()
	var kept [numOps]int
	for i := range res.kept {
		kept[reqs[i].op]++
	}
	var seen [numOps]int
	for i := 0; i < res.done; i++ {
		r := &reqs[i]
		if r.update != nil {
			if err := model.Apply(*r.update); err != nil {
				return checked, mismatches, fmt.Errorf("model: %w", err)
			}
			continue
		}
		body, ok := res.kept[i]
		if !ok {
			continue
		}
		seen[r.op]++
		if stride := (kept[r.op] + livePerOp - 1) / livePerOp; seen[r.op]%stride != 0 {
			continue
		}
		var a struct{ Tau float64 }
		if err := json.Unmarshal(body, &a); err != nil {
			return checked, mismatches, err
		}
		if a.Tau != model.Tau() { //modlint:allow floatcmp -- the server must answer as of exactly the last update it acknowledged
			mismatches = append(mismatches, fmt.Sprintf("%s %s: answered as of tau %v, model is at %v", opName[r.op], r.body, a.Tau, model.Tau()))
		}
		bad, err := checkAnswer(model, r, body)
		if err != nil {
			return checked, mismatches, err
		}
		checked++
		if bad != "" {
			mismatches = append(mismatches, bad)
		}
	}
	return checked, mismatches, nil
}
