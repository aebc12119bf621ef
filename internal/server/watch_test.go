package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/shard"
)

// sseRecord is one parsed SSE record: the id line plus the JSON body.
type sseRecord struct {
	id uint64
	ev watchEvent
}

// sseReader incrementally parses an SSE response body.
type sseReader struct {
	t     *testing.T
	body  *bufio.Reader
	beats int // ": heartbeat" comments seen
}

// next reads records until n arrive, a done record arrives, or the
// deadline passes.
func (r *sseReader) next(n int) []sseRecord {
	r.t.Helper()
	var out []sseRecord
	var id uint64
	deadline := time.Now().Add(10 * time.Second)
	for len(out) < n && time.Now().Before(deadline) {
		line, err := r.body.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, ": heartbeat"):
			r.beats++
		case strings.HasPrefix(line, "id: "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				r.t.Fatalf("bad id line %q: %v", line, err)
			}
			id = v
		case strings.HasPrefix(line, "data: "):
			var ev watchEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				r.t.Fatalf("bad event %q: %v", line, err)
			}
			out = append(out, sseRecord{id: id, ev: ev})
			if ev.Done {
				return out
			}
		}
	}
	return out
}

// watchClient applies a delta stream the way a real client would:
// resyncs replace the state, add/remove patch it, order overrides the
// k-NN ranking.
type watchClient struct {
	set   map[string]bool
	order []string
}

func newWatchClient() *watchClient { return &watchClient{set: map[string]bool{}} }

func (c *watchClient) apply(t *testing.T, ev watchEvent) {
	t.Helper()
	if ev.Resync {
		c.set = map[string]bool{}
		for _, o := range ev.Add {
			c.set[o] = true
		}
		c.order = ev.Order
		return
	}
	for _, o := range ev.Remove {
		if !c.set[o] {
			t.Fatalf("delta removes absent %s", o)
		}
		delete(c.set, o)
	}
	for _, o := range ev.Add {
		if c.set[o] {
			t.Fatalf("delta re-adds present %s", o)
		}
		c.set[o] = true
	}
	if ev.Order != nil {
		c.order = ev.Order
	}
}

func (c *watchClient) members() []string {
	out := make([]string, 0, len(c.set))
	for o := range c.set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// openWatch POSTs a watch request and returns the live SSE reader.
func openWatch(t *testing.T, url, endpoint string, body watchRequest) (*sseReader, func()) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+endpoint, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		defer resp.Body.Close()
		t.Fatalf("watch %s code %d", endpoint, resp.StatusCode)
	}
	return &sseReader{t: t, body: bufio.NewReader(resp.Body)}, func() { _ = resp.Body.Close() }
}

func TestWatchKNNStreamsDeltas(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.Apply(mod.New(1, 0, geom.Of(0, 0), geom.Of(10, 0))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(shard.Single(db), Options{}))
	defer ts.Close()

	r, closeBody := openWatch(t, ts.URL, "/watch/knn", watchRequest{K: 1, Hi: 1000, Point: []float64{0, 0}})
	defer closeBody()
	cl := newWatchClient()

	recs := r.next(1)
	if len(recs) != 1 || !recs[0].ev.Resync {
		t.Fatalf("initial record %+v", recs)
	}
	cl.apply(t, recs[0].ev)
	if len(cl.order) != 1 || cl.order[0] != "o1" {
		t.Fatalf("initial answer %v", cl.order)
	}
	lastID := recs[0].id

	// A closer object appears: the watch must push a delta handing the
	// rank to o2.
	if err := db.Apply(mod.New(2, 5, geom.Of(0, 0), geom.Of(1, 1))); err != nil {
		t.Fatal(err)
	}
	recs = r.next(1)
	if len(recs) != 1 {
		t.Fatalf("no delta after new object")
	}
	if recs[0].id <= lastID {
		t.Fatalf("id not monotonic: %d after %d", recs[0].id, lastID)
	}
	lastID = recs[0].id
	cl.apply(t, recs[0].ev)
	if len(cl.order) != 1 || cl.order[0] != "o2" {
		t.Fatalf("after new: order %v (event %+v)", cl.order, recs[0].ev)
	}

	// It terminates: the answer reverts to o1.
	if err := db.Apply(mod.Terminate(2, 8)); err != nil {
		t.Fatal(err)
	}
	recs = r.next(1)
	if len(recs) != 1 || recs[0].id <= lastID {
		t.Fatalf("after terminate: %+v (lastID %d)", recs, lastID)
	}
	cl.apply(t, recs[0].ev)
	if len(cl.order) != 1 || cl.order[0] != "o1" {
		t.Fatalf("after terminate: order %v", cl.order)
	}
}

// TestWatchWithinStreamsDeltas is the /watch/within walkthrough: the
// membership set tracks objects entering and leaving the ball, and the
// stream finishes with a done record at the horizon.
func TestWatchWithinStreamsDeltas(t *testing.T) {
	db := mod.NewDB(2, -1)
	// o1 sits inside the ball; o2 is far away and stationary.
	if err := db.ApplyAll(
		mod.New(1, 0, geom.Of(0, 0), geom.Of(1, 0)),
		mod.New(2, 0.5, geom.Of(0, 0), geom.Of(100, 0)),
	); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(shard.Single(db), Options{}))
	defer ts.Close()

	r, closeBody := openWatch(t, ts.URL, "/watch/within", watchRequest{Radius: 5, Hi: 50, Point: []float64{0, 0}})
	defer closeBody()
	cl := newWatchClient()

	recs := r.next(1)
	if len(recs) != 1 || !recs[0].ev.Resync {
		t.Fatalf("initial record %+v", recs)
	}
	cl.apply(t, recs[0].ev)
	if got := cl.members(); len(got) != 1 || got[0] != "o1" {
		t.Fatalf("initial members %v", got)
	}

	// o2 starts moving toward the center at speed 10: it crosses into
	// the ball at t = 10.5 and out again at t = 11.5. Those are kinetic
	// events between updates — they surface, exactly stamped, when the
	// next update advances the registry's virtual time past them.
	if err := db.Apply(mod.ChDir(2, 1, geom.Of(-10, 0))); err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(mod.ChDir(2, 20, geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	recs = r.next(2)
	if len(recs) != 2 {
		t.Fatalf("want entry+exit deltas, got %+v", recs)
	}
	cl.apply(t, recs[0].ev)
	if got := cl.members(); len(got) != 2 {
		t.Fatalf("members after entry %v (event %+v)", got, recs[0].ev)
	}
	if math.Abs(recs[0].ev.T-10.5) > 1e-9 {
		t.Errorf("entry delta at t=%g, want 10.5", recs[0].ev.T)
	}
	cl.apply(t, recs[1].ev)
	if got := cl.members(); len(got) != 1 || got[0] != "o1" {
		t.Fatalf("members after exit %v (event %+v)", got, recs[1].ev)
	}
	if math.Abs(recs[1].ev.T-11.5) > 1e-9 {
		t.Errorf("exit delta at t=%g, want 11.5", recs[1].ev.T)
	}

	// An update beyond the horizon finishes the watch; the terminal
	// record is done with no error.
	if err := db.Apply(mod.ChDir(1, 60, geom.Of(1, 0))); err != nil {
		t.Fatal(err)
	}
	recs = r.next(10)
	if len(recs) == 0 {
		t.Fatal("no records after horizon")
	}
	last := recs[len(recs)-1]
	for _, rec := range recs {
		cl.apply(t, rec.ev)
	}
	if !last.ev.Done || last.ev.Error != "" {
		t.Fatalf("terminal record %+v", last.ev)
	}
	if last.ev.T != 50 {
		t.Errorf("done at t=%g, want horizon 50", last.ev.T)
	}
}

// TestWatchValidation pins the 400 responses: malformed geometry
// (NaN/Inf point components), malformed horizons (negative, NaN), bad
// k/radius/dimension, and a horizon not after now must all be rejected
// at subscribe time, before any stream is opened.
func TestWatchValidation(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.Apply(mod.New(1, 0, geom.Of(0, 0), geom.Of(10, 0))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(shard.Single(db), Options{}))
	defer ts.Close()

	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		endpoint string
		body     watchRequest
	}{
		{"/watch/knn", watchRequest{K: 0, Hi: 100, Point: []float64{0, 0}}},           // bad k
		{"/watch/knn", watchRequest{K: -3, Hi: 100, Point: []float64{0, 0}}},          // negative k
		{"/watch/knn", watchRequest{K: 1, Hi: 100, Point: []float64{0}}},              // bad dim
		{"/watch/knn", watchRequest{K: 1, Hi: -10, Point: []float64{0, 0}}},           // negative horizon
		{"/watch/knn", watchRequest{K: 1, Hi: nan, Point: []float64{0, 0}}},           // NaN horizon
		{"/watch/knn", watchRequest{K: 1, Hi: inf, Point: []float64{0, 0}}},           // Inf horizon
		{"/watch/knn", watchRequest{K: 1, Hi: 100, Point: []float64{nan, 0}}},         // NaN component
		{"/watch/knn", watchRequest{K: 1, Hi: 100, Point: []float64{0, inf}}},         // Inf component
		{"/watch/within", watchRequest{Radius: -1, Hi: 100, Point: []float64{0, 0}}},  // negative radius
		{"/watch/within", watchRequest{Radius: nan, Hi: 100, Point: []float64{0, 0}}}, // NaN radius
		{"/watch/within", watchRequest{Radius: inf, Hi: 100, Point: []float64{0, 0}}}, // Inf radius
		{"/watch/within", watchRequest{Radius: 5, Hi: 100, Point: []float64{nan, 0}}}, // NaN component
	}
	for _, c := range cases {
		// Rendered by hand: encoding/json cannot marshal NaN/Inf, but a
		// non-Go client can still put those tokens (or an overflowing
		// 1e999) on the wire; whichever layer catches them, the answer
		// must be 400, never a 200 with a poisoned subscription.
		data := buildWatchJSON(c.body)
		resp, err := http.Post(ts.URL+c.endpoint, "application/json", strings.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s %s code %d, want 400", c.endpoint, data, resp.StatusCode)
		}
	}

	// A horizon at or before the database's current time is rejected.
	if err := db.Apply(mod.ChDir(1, 20, geom.Of(1, 0))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/watch/knn", "application/json",
		strings.NewReader(`{"k":1,"hi":10,"point":[0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("past-horizon watch code %d, want 400", resp.StatusCode)
	}
}

// buildWatchJSON renders a watchRequest as raw JSON, writing NaN and
// Inf as bare tokens the way a non-Go client could.
func buildWatchJSON(r watchRequest) string {
	num := func(f float64) string {
		switch {
		case math.IsNaN(f):
			return "NaN"
		case math.IsInf(f, 1):
			return "Infinity"
		case math.IsInf(f, -1):
			return "-Infinity"
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	parts := []string{}
	if r.K != 0 {
		parts = append(parts, `"k":`+strconv.Itoa(r.K))
	}
	if r.Radius != 0 {
		parts = append(parts, `"radius":`+num(r.Radius))
	}
	parts = append(parts, `"hi":`+num(r.Hi))
	comps := make([]string, len(r.Point))
	for i, p := range r.Point {
		comps[i] = num(p)
	}
	parts = append(parts, `"point":[`+strings.Join(comps, ",")+`]`)
	return "{" + strings.Join(parts, ",") + "}"
}

// TestWatchHeartbeat: an idle stream carries ": heartbeat" comments at
// the configured interval.
func TestWatchHeartbeat(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.Apply(mod.New(1, 0, geom.Of(0, 0), geom.Of(10, 0))); err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(shard.Single(db), Options{WatchHeartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	r, closeBody := openWatch(t, ts.URL, "/watch/knn", watchRequest{K: 1, Hi: 1000, Point: []float64{0, 0}})
	defer closeBody()
	_ = r.next(1) // initial record

	deadline := time.Now().Add(5 * time.Second)
	for r.beats < 2 && time.Now().Before(deadline) {
		line, err := r.body.ReadString('\n')
		if err != nil {
			break
		}
		if strings.HasPrefix(strings.TrimSpace(line), ": heartbeat") {
			r.beats++
		}
	}
	if r.beats < 2 {
		t.Fatalf("saw %d heartbeats, want >= 2", r.beats)
	}
}

// TestWatchSharedSubscription: two clients watching the same query are
// served by one materialized subscription; both see the same deltas.
func TestWatchSharedSubscription(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.Apply(mod.New(1, 0, geom.Of(0, 0), geom.Of(10, 0))); err != nil {
		t.Fatal(err)
	}
	eng := shard.Single(db)
	ts := httptest.NewServer(NewWithOptions(eng, Options{}))
	defer ts.Close()

	req := watchRequest{K: 1, Hi: 1000, Point: []float64{0, 0}}
	r1, close1 := openWatch(t, ts.URL, "/watch/knn", req)
	defer close1()
	r2, close2 := openWatch(t, ts.URL, "/watch/knn", req)
	defer close2()
	_ = r1.next(1)
	_ = r2.next(1)

	if subs, streams := eng.Subscriptions().Counts(); subs != 1 || streams != 2 {
		t.Fatalf("counts = (%d subs, %d streams), want (1, 2)", subs, streams)
	}

	if err := db.Apply(mod.New(2, 5, geom.Of(0, 0), geom.Of(1, 1))); err != nil {
		t.Fatal(err)
	}
	for i, r := range []*sseReader{r1, r2} {
		recs := r.next(1)
		if len(recs) != 1 || len(recs[0].ev.Order) != 1 || recs[0].ev.Order[0] != "o2" {
			t.Fatalf("client %d: delta %+v", i+1, recs)
		}
	}
}
