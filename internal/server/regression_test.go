package server

// Regression tests for the wire-protocol sweep: 64-bit OIDs round-trip
// through /update and /object, empty interval lists marshal as [] (not
// null), and the answer's class is derived from the snapshot tau the
// backend actually computed over — never from a re-read of the live
// clock racing with concurrent updates.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bead"
	"repro/internal/core"
	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sub"
)

// stubBackend lets a test script the query results (answer set, sweep
// stats, snapshot tau) independently of the live Tau().
type stubBackend struct {
	liveTau float64
	ansTau  float64
	ans     *query.AnswerSet
	stats   core.Stats

	updErr error // returned by Apply and ApplyBatch

	subOnce sync.Once
	subReg  *sub.Registry
}

func (b *stubBackend) Tau() float64 { return b.liveTau }
func (b *stubBackend) Snapshots() []*mod.Snap {
	return []*mod.Snap{mod.NewDB(2, b.liveTau).EpochSnapshot()}
}
func (b *stubBackend) Apply(mod.Update) error { return b.updErr }
func (b *stubBackend) ApplyBatch(us []mod.Update) (int, error) {
	return len(us), b.updErr
}
func (b *stubBackend) KNN(gdist.GDistance, int, float64, float64) (*query.AnswerSet, core.Stats, float64, error) {
	return b.ans, b.stats, b.ansTau, nil
}
func (b *stubBackend) Within(gdist.GDistance, float64, float64, float64) (*query.AnswerSet, core.Stats, float64, error) {
	return b.ans, b.stats, b.ansTau, nil
}
func (b *stubBackend) Alibi(_, _ mod.OID, _, _, _ float64) (bead.Result, float64, error) {
	return bead.Result{}, b.ansTau, nil
}
func (b *stubBackend) PossiblyWithin(geom.Vec, float64, float64, float64, float64) (*query.AnswerSet, float64, error) {
	return b.ans, b.ansTau, nil
}
func (b *stubBackend) Subscriptions() *sub.Registry {
	// The registry is unused by these tests beyond the server's eager
	// creation, so an empty engine is its source.
	b.subOnce.Do(func() {
		eng, err := shard.New(shard.Config{Dim: 2})
		if err != nil {
			panic(err)
		}
		b.subReg = eng.Subscriptions()
	})
	return b.subReg
}

// TestLargeOIDRoundTrip: the largest OID the database accepts,
// accepted by POST /update, must resolve on GET /object; a still larger
// one parses and is not found (a narrower parse once 400'd here).
func TestLargeOIDRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	const big = uint64(mod.MaxOID)
	code := postJSON(t, ts.URL+"/update", map[string]interface{}{
		"kind": "new", "oid": big, "tau": 9,
		"a": []float64{1, 0}, "b": []float64{0, 0},
	}, nil)
	if code != 200 {
		t.Fatalf("update with large oid: code %d", code)
	}
	var obj struct {
		OID uint64 `json:"oid"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/object?oid=%d", ts.URL, big), &obj); code != 200 {
		t.Fatalf("GET /object?oid=%d: code %d", big, code)
	}
	if obj.OID != big {
		t.Errorf("object oid = %d, want %d", obj.OID, big)
	}
	// The "o"-prefixed String() form resolves too.
	if code := getJSON(t, fmt.Sprintf("%s/object?oid=o%d", ts.URL, big), &obj); code != 200 {
		t.Errorf("GET /object?oid=o%d: code %d", big, code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/object?oid=%d", ts.URL, uint64(1)<<52+7), nil); code != http.StatusNotFound {
		t.Errorf("GET /object for an OID above mod.MaxOID: code %d, want 404", code)
	}
}

// TestOIDAboveMaxIsRefused: an update naming an OID the sweep cannot
// address is a 400, on /update and on /update/batch (which keeps the
// applied prefix), and the k-NN and within queries that follow answer
// as before. Such an OID once answered 200 and broke every later
// query with a 400.
func TestOIDAboveMaxIsRefused(t *testing.T) {
	ts, _ := newTestServer(t)
	queries := func() string {
		var knn, within struct {
			Answers json.RawMessage `json:"answers"`
		}
		if code := postJSON(t, ts.URL+"/query/knn", map[string]interface{}{
			"k": 1, "lo": 0, "hi": 5, "point": []float64{0, 0},
		}, &knn); code != 200 {
			t.Fatalf("/query/knn: code %d", code)
		}
		if code := postJSON(t, ts.URL+"/query/within", map[string]interface{}{
			"radius": 10, "lo": 0, "hi": 5, "point": []float64{0, 0},
		}, &within); code != 200 {
			t.Fatalf("/query/within: code %d", code)
		}
		return string(knn.Answers) + string(within.Answers)
	}
	before := queries()
	tooBig := uint64(mod.MaxOID) + 1
	var resp struct {
		Error   string `json:"error"`
		Applied *int   `json:"applied"`
	}
	if code := postJSON(t, ts.URL+"/update", map[string]interface{}{
		"kind": "new", "oid": tooBig, "tau": 9, "a": []float64{1, 0}, "b": []float64{0, 0},
	}, &resp); code != http.StatusBadRequest {
		t.Fatalf("/update with oid 2^48: code %d (%s), want 400", code, resp.Error)
	}
	// The batch's first update lands far away and after the query
	// window, so the answers stay comparable.
	if code := postJSON(t, ts.URL+"/update/batch", []map[string]interface{}{
		{"kind": "new", "oid": 3, "tau": 10, "a": []float64{0, 0}, "b": []float64{1e6, 0}},
		{"kind": "new", "oid": tooBig, "tau": 11, "a": []float64{1, 0}, "b": []float64{0, 0}},
	}, &resp); code != http.StatusBadRequest || resp.Applied == nil || *resp.Applied != 1 {
		t.Fatalf("/update/batch with oid 2^48: code %d, applied %v (%s), want 400 with 1 applied", code, resp.Applied, resp.Error)
	}
	if after := queries(); after != before {
		t.Fatalf("answers changed after the refused updates:\n%s\nwant\n%s", after, before)
	}
}

// TestDurabilityFailureIs500: an update applied in memory but not made
// durable is the server's failure, not a conflict, on /update and on
// /update/batch; the batch error still carries the applied count.
func TestDurabilityFailureIs500(t *testing.T) {
	be := &stubBackend{updErr: fmt.Errorf("%w: shard 0: disk full", mod.ErrNotDurable)}
	ts := httptest.NewServer(NewWithOptions(be, Options{}))
	defer ts.Close()
	var resp struct {
		Error   string `json:"error"`
		Applied *int   `json:"applied"`
	}
	u := map[string]interface{}{"kind": "new", "oid": 1, "tau": 9, "a": []float64{1, 0}, "b": []float64{0, 0}}
	if code := postJSON(t, ts.URL+"/update", u, &resp); code != http.StatusInternalServerError {
		t.Errorf("/update: code %d, want 500", code)
	}
	if code := postJSON(t, ts.URL+"/update/batch", []map[string]interface{}{u}, &resp); code != http.StatusInternalServerError ||
		resp.Applied == nil || *resp.Applied != 1 {
		t.Errorf("/update/batch: code %d, applied %v, want 500 with 1 applied", code, resp.Applied)
	}
	// Any other error keeps its status.
	be.updErr = mod.ErrChronology
	if code := postJSON(t, ts.URL+"/update", u, nil); code != http.StatusConflict {
		t.Errorf("/update with a chronology error: code %d, want 409", code)
	}
}

// TestEmptyIntervalListMarshalsAsArray: an answered object whose
// interval list is empty must encode as [], not null — clients iterate
// the wire value.
func TestEmptyIntervalListMarshalsAsArray(t *testing.T) {
	ans := query.NewAnswerSet()
	ans.Enter(1, 0) // open membership, no closed intervals yet
	be := &stubBackend{ans: ans}
	ts := httptest.NewServer(NewWithOptions(be, Options{}))
	defer ts.Close()

	var resp struct {
		Answers map[string]json.RawMessage `json:"answers"`
	}
	code := postJSON(t, ts.URL+"/query/knn", map[string]interface{}{
		"k": 1, "lo": 0, "hi": 10, "point": []float64{0, 0},
	}, &resp)
	if code != 200 {
		t.Fatalf("knn code %d", code)
	}
	raw, ok := resp.Answers["o1"]
	if !ok {
		t.Fatalf("o1 missing from answers: %v", resp.Answers)
	}
	if got := strings.TrimSpace(string(raw)); got != "[]" {
		t.Errorf("empty interval list encodes as %s, want []", got)
	}
}

// TestClassComesFromSnapshotTau: the class in the response must be
// computed against the tau of the snapshot the backend answered over,
// not the live Tau() — the two diverge under concurrent updates.
func TestClassComesFromSnapshotTau(t *testing.T) {
	ans := query.NewAnswerSet()
	ans.Enter(1, 1)
	ans.Leave(1, 2)
	ans.Finish(2)
	// Live clock says 0 (the window [1,2] would look future); the
	// snapshot that produced the answer had tau=100 (the window is past).
	be := &stubBackend{liveTau: 0, ansTau: 100, ans: ans}
	ts := httptest.NewServer(NewWithOptions(be, Options{}))
	defer ts.Close()

	for _, ep := range []string{"/query/knn", "/query/within"} {
		var resp struct {
			Class string  `json:"class"`
			Tau   float64 `json:"tau"`
		}
		body := map[string]interface{}{"k": 1, "radius": 5, "lo": 1, "hi": 2, "point": []float64{0, 0}}
		if code := postJSON(t, ts.URL+ep, body, &resp); code != 200 {
			t.Fatalf("%s code %d", ep, code)
		}
		if resp.Tau != 100 {
			t.Errorf("%s: tau = %g, want 100 (snapshot's)", ep, resp.Tau)
		}
		if resp.Class != "past" {
			t.Errorf("%s: class = %q, want past (window [1,2] vs snapshot tau 100)", ep, resp.Class)
		}
	}
}

// TestClassTauInvariantUnderConcurrentUpdates drives queries against a
// window the advancing clock sweeps through (future -> continuing ->
// past) and pins the invariant class == Classify(lo, hi, tau) on every
// response. Run under -race in CI.
func TestClassTauInvariantUnderConcurrentUpdates(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.ApplyAll(
		mod.New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		mod.New(2, 0.5, geom.Of(0, 1), geom.Of(5, 5)),
	); err != nil {
		t.Fatal(err)
	}
	eng, err := shard.FromDB(db, shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(eng, Options{}))
	defer ts.Close()
	url := ts.URL

	const lo, hi = 50.0, 60.0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for tau := 1.0; tau <= 120; tau++ {
			postJSON(t, url+"/update", map[string]interface{}{
				"kind": "chdir", "oid": 1, "tau": tau, "a": []float64{1, 1},
			}, nil)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var resp struct {
					Class string  `json:"class"`
					Tau   float64 `json:"tau"`
				}
				code := postJSON(t, url+"/query/knn", map[string]interface{}{
					"k": 1, "lo": lo, "hi": hi, "point": []float64{0, 0},
				}, &resp)
				if code != 200 {
					t.Errorf("knn code %d", code)
					continue
				}
				want, err := query.Classify(lo, hi, resp.Tau)
				if err != nil {
					t.Errorf("classify: %v", err)
					continue
				}
				if resp.Class != want.String() {
					t.Errorf("class = %q but tau = %g classifies as %q", resp.Class, resp.Tau, want)
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

// TestMetricsEndpoint scrapes /metrics after traffic: HTTP series,
// sweep-work series and query-latency histograms must all be present,
// with no duplicate family declarations, and the JSON view must parse.
func TestMetricsEndpoint(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.ApplyAll(
		mod.New(1, 0, geom.Of(0, 0), geom.Of(3, 4)),
		mod.New(2, 0.5, geom.Of(-1, 0), geom.Of(20, 0)),
	); err != nil {
		t.Fatal(err)
	}
	eng := shard.Single(db)
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	ts := httptest.NewServer(NewWithOptions(eng, Options{Metrics: reg}))
	defer ts.Close()

	if code := postJSON(t, ts.URL+"/query/knn", map[string]interface{}{
		"k": 1, "lo": 0, "hi": 30, "point": []float64{0, 0},
	}, nil); code != 200 {
		t.Fatalf("knn code %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz code %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if body == "" {
		t.Fatal("/metrics returned an empty body")
	}
	for _, want := range []string{
		"mod_http_requests_total{endpoint=\"POST /query/knn\",code=\"200\"} 1",
		"mod_http_request_seconds_bucket",
		"mod_sweep_events_total",
		"mod_query_seconds_bucket{kind=\"knn\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every family is declared exactly once and every sample line has
	// exactly two fields (name{labels} value).
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam := strings.Fields(name)[0]
			if seen[fam] {
				t.Errorf("duplicate family declaration %q", fam)
			}
			seen[fam] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// name{labels} value — label values may contain spaces, so
		// validate shape as "everything up to the last space" + number.
		i := strings.LastIndex(line, " ")
		if i <= 0 {
			t.Errorf("sample line %q has no value field", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("sample line %q: value %q does not parse: %v", line, line[i+1:], err)
		}
	}
	if len(seen) == 0 {
		t.Error("no # TYPE declarations in /metrics output")
	}

	// The JSON view parses and carries the same families.
	var js map[string]interface{}
	if code := getJSON(t, ts.URL+"/metrics?format=json", &js); code != 200 {
		t.Fatalf("metrics json code %d", code)
	}
	if _, ok := js["mod_http_requests_total"]; !ok {
		t.Errorf("json view missing mod_http_requests_total: %v", js)
	}
}

// syncBuf is a goroutine-safe log sink.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLog: with a tiny threshold every query logs one
// structured SLOWQUERY line whose JSON carries the query's shape.
func TestSlowQueryLog(t *testing.T) {
	db := mod.NewDB(2, -1)
	if err := db.Apply(mod.New(1, 0, geom.Of(0, 0), geom.Of(3, 4))); err != nil {
		t.Fatal(err)
	}
	var buf syncBuf
	srv := NewWithOptions(shard.Single(db), Options{
		Logger:             log.New(&buf, "", 0),
		SlowQueryThreshold: time.Nanosecond,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code := postJSON(t, ts.URL+"/query/within", map[string]interface{}{
		"radius": 6, "lo": 1, "hi": 30, "point": []float64{0, 0},
	}, nil); code != 200 {
		t.Fatalf("within code %d", code)
	}
	var rec slowQueryRecord
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "SLOWQUERY "); ok {
			if err := json.Unmarshal([]byte(rest), &rec); err != nil {
				t.Fatalf("bad SLOWQUERY json %q: %v", rest, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no SLOWQUERY line in log:\n%s", buf.String())
	}
	if rec.Endpoint != "/query/within" || rec.Radius != 6 || rec.Lo != 1 || rec.Hi != 30 {
		t.Errorf("slow-query record = %+v", rec)
	}
	if rec.Class == "" || rec.Ms < 0 {
		t.Errorf("slow-query record missing class/ms: %+v", rec)
	}
}

// slowWriter is a ResponseWriter whose client is slow to take the body.
type slowWriter struct {
	*httptest.ResponseRecorder
	delay time.Duration
}

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseRecorder.Write(p)
}

// TestSlowQueryLogCoversTheAnswer: the SLOWQUERY clock stops after the
// answer is encoded and written, and the line says how big the answer
// was. The backend answers at once and only the write is slow, so a
// line logged before the write would not be logged at all.
func TestSlowQueryLogCoversTheAnswer(t *testing.T) {
	ans := query.NewAnswerSet()
	for o := 0; o < 2000; o++ {
		ans.Enter(mod.OID(o), 1)
		ans.Leave(mod.OID(o), 2)
	}
	ans.Finish(2)
	const delay = 60 * time.Millisecond
	for _, req := range []struct {
		path, body string
		objects    int // objects the answer names; an alibi names none
	}{
		{"/query/knn", `{"k":1,"lo":1,"hi":2,"point":[0,0]}`, 2000},
		{"/query/within", `{"radius":1,"lo":1,"hi":2,"point":[0,0]}`, 2000},
		{"/query/possibly-within", `{"radius":1,"lo":1,"hi":2,"point":[0,0],"vmax":1}`, 2000},
		{"/query/alibi", `{"o1":1,"o2":2,"lo":1,"hi":2,"vmax":1}`, 0},
	} {
		var buf syncBuf
		srv := NewWithOptions(&stubBackend{ans: ans, ansTau: 100}, Options{
			Logger:             log.New(&buf, "", 0),
			SlowQueryThreshold: delay / 2,
		})
		w := slowWriter{httptest.NewRecorder(), delay}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: code %d: %s", req.path, w.Code, w.Body)
		}
		_, rest, ok := strings.Cut(buf.String(), "SLOWQUERY ")
		var rec slowQueryRecord
		if !ok || json.Unmarshal([]byte(rest), &rec) != nil {
			t.Fatalf("%s: no SLOWQUERY line for a request whose write took %v:\n%s", req.path, delay, buf.String())
		}
		if rec.Endpoint != req.path || rec.Objects != req.objects || rec.Bytes != w.Body.Len() || rec.Ms < float64(delay/time.Millisecond) {
			t.Errorf("%s: record %+v, want %d objects, %d bytes and at least %v", req.path, rec, req.objects, w.Body.Len(), delay)
		}
	}
}

// TestPossiblyWithinInvertedWindowIs400WhateverTheData: a question the
// uncertainty layer refuses is a 400 with its reason, not a 200 with an
// empty answer whenever no object happens to be near the query point.
func TestPossiblyWithinInvertedWindowIs400WhateverTheData(t *testing.T) {
	for name, updates := range map[string][]mod.Update{
		"empty": nil,
		"far":   {mod.New(1, 1, geom.Of(0, 0), geom.Of(1e6, 0))},
		"near":  {mod.New(1, 1, geom.Of(0, 0), geom.Of(1, 0))},
	} {
		for _, shards := range []int{1, 4} {
			eng, err := shard.New(shard.Config{Shards: shards, Dim: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ApplyAll(updates...); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewWithOptions(eng, Options{}))
			var env struct {
				Error string `json:"error"`
			}
			code := postJSON(t, ts.URL+"/query/possibly-within", map[string]interface{}{
				"radius": 10, "lo": 10, "hi": 5, "point": []float64{0, 0}, "vmax": 20,
			}, &env)
			ts.Close()
			if want := "bead: inverted query window [10, 5]"; code != 400 || env.Error != want {
				t.Errorf("%s database, %d shard(s): code %d error %q, want 400 %q", name, shards, code, env.Error, want)
			}
		}
	}
}

// TestKNNHugeKAnswers: POST /query/knn with k >= 2^61 used to spin a
// handler goroutine for the life of the process (4k wrapped the bounded
// sweep's rank ladder to zero). Any k at or above the population is
// answered like k = 10^9: the whole order, promptly.
func TestKNNHugeKAnswers(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng, err := shard.New(shard.Config{Shards: shards, Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 50; i++ {
			a := float64(i)
			if err := eng.Apply(mod.New(mod.OID(i), a*1e-3, geom.Of(a/7, -a/9), geom.Of(3*a, -a))); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(NewWithOptions(eng, Options{}))
		client := &http.Client{Timeout: 2 * time.Second}
		ask := func(k string) string {
			t.Helper()
			req := `{"k":` + k + `,"lo":0.01,"hi":0.04,"point":[0,0]}`
			resp, err := client.Post(ts.URL+"/query/knn", "application/json", strings.NewReader(req))
			if err != nil {
				t.Fatalf("%d shard(s), k = %s: %v", shards, k, err)
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			if _, err := body.ReadFrom(resp.Body); err != nil {
				t.Fatalf("%d shard(s), k = %s: reading the answer: %v", shards, k, err)
			}
			if resp.StatusCode != 200 {
				t.Fatalf("%d shard(s), k = %s: code %d: %s", shards, k, resp.StatusCode, body.String())
			}
			return body.String()
		}
		want := ask("1000000000")
		for _, k := range []string{"2305843009213693952", "4611686018427387904", "9223372036854775807"} {
			if got := ask(k); got != want {
				t.Errorf("%d shard(s), k = %s answers\n  %s\nk = 10^9 answers\n  %s", shards, k, got, want)
			}
		}
		ts.Close()
	}
}
