package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/shard"
	"repro/internal/workload"
)

func newTestServer(t *testing.T) (*httptest.Server, *mod.DB) {
	t.Helper()
	db := mod.NewDB(2, -1)
	if err := db.ApplyAll(
		mod.New(1, 0, geom.Of(0, 0), geom.Of(3, 4)),
		mod.New(2, 0.5, geom.Of(-1, 0), geom.Of(20, 0)),
	); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(shard.Single(db), Options{}))
	t.Cleanup(ts.Close)
	return ts, db
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response of %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthAndObjects(t *testing.T) {
	ts, _ := newTestServer(t)
	var health map[string]interface{}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz code %d", code)
	}
	if health["status"] != "ok" || health["objects"].(float64) != 2 {
		t.Errorf("health = %v", health)
	}
	var objs struct {
		Tau     float64  `json:"tau"`
		Objects []uint64 `json:"objects"`
		Live    int      `json:"live"`
	}
	if code := getJSON(t, ts.URL+"/objects", &objs); code != 200 {
		t.Fatalf("objects code %d", code)
	}
	if len(objs.Objects) != 2 || objs.Tau != 0.5 || objs.Live != 2 {
		t.Errorf("objects = %+v", objs)
	}
}

// TestObjectsLiveExcludesLastTerminated: an object terminated by the
// very last update is still defined at tau (a trajectory's domain is
// closed at its end) but can no longer be updated, so it is not live.
func TestObjectsLiveExcludesLastTerminated(t *testing.T) {
	ts, db := newTestServer(t)
	if err := db.Apply(mod.Terminate(1, 2)); err != nil {
		t.Fatal(err)
	}
	var objs struct {
		Tau     float64  `json:"tau"`
		Objects []uint64 `json:"objects"`
		Live    int      `json:"live"`
	}
	if code := getJSON(t, ts.URL+"/objects", &objs); code != 200 {
		t.Fatalf("objects code %d", code)
	}
	if len(objs.Objects) != 2 || objs.Tau != 2 || objs.Live != 1 {
		t.Errorf("objects = %+v, want 2 objects, tau 2, 1 live", objs)
	}
}

func TestObjectEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var obj struct {
		OID        uint64 `json:"oid"`
		Constraint string `json:"constraint"`
		Pieces     []struct {
			Start float64   `json:"start"`
			A     []float64 `json:"a"`
		} `json:"pieces"`
	}
	if code := getJSON(t, ts.URL+"/object?oid=2", &obj); code != 200 {
		t.Fatalf("object code %d", code)
	}
	if obj.OID != 2 || len(obj.Pieces) != 1 || obj.Pieces[0].A[0] != -1 {
		t.Errorf("object = %+v", obj)
	}
	if !strings.Contains(obj.Constraint, "x = (-1, 0)t") {
		t.Errorf("constraint = %q", obj.Constraint)
	}
	if code := getJSON(t, ts.URL+"/object?oid=99", nil); code != 404 {
		t.Errorf("missing object code %d", code)
	}
	if code := getJSON(t, ts.URL+"/object?oid=abc", nil); code != 400 {
		t.Errorf("bad oid code %d", code)
	}
}

func TestUpdateEndpoint(t *testing.T) {
	ts, db := newTestServer(t)
	var resp map[string]interface{}
	code := postJSON(t, ts.URL+"/update", map[string]interface{}{
		"kind": "chdir", "oid": 1, "tau": 5, "a": []float64{1, 1},
	}, &resp)
	if code != 200 {
		t.Fatalf("update code %d: %v", code, resp)
	}
	if db.Tau() != 5 {
		t.Errorf("tau = %g after update", db.Tau())
	}
	// Chronology violation -> 409.
	code = postJSON(t, ts.URL+"/update", map[string]interface{}{
		"kind": "chdir", "oid": 1, "tau": 3, "a": []float64{1, 1},
	}, nil)
	if code != http.StatusConflict {
		t.Errorf("stale update code %d, want 409", code)
	}
	// Unknown kind -> 400.
	code = postJSON(t, ts.URL+"/update", map[string]interface{}{
		"kind": "warp", "oid": 1, "tau": 9,
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("bad kind code %d, want 400", code)
	}
	// Dimension mismatch -> 400.
	code = postJSON(t, ts.URL+"/update", map[string]interface{}{
		"kind": "new", "oid": 9, "tau": 9, "a": []float64{1}, "b": []float64{1},
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("dim mismatch code %d, want 400", code)
	}
}

func TestKNNEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var ans struct {
		Class   string `json:"class"`
		Answers map[string][]struct {
			Lo, Hi float64
		} `json:"answers"`
		Events int `json:"events"`
	}
	code := postJSON(t, ts.URL+"/query/knn", map[string]interface{}{
		"k": 1, "lo": 0.25, "hi": 30, "point": []float64{0, 0},
	}, &ans)
	if code != 200 {
		t.Fatalf("knn code %d", code)
	}
	// The window straddles tau=0.5: a continuing query.
	if ans.Class != "continuing" {
		t.Errorf("class = %q", ans.Class)
	}
	if len(ans.Answers["o1"]) == 0 || len(ans.Answers["o2"]) == 0 {
		t.Errorf("answers = %v", ans.Answers)
	}
	// o2's takeover at 15.5.
	if got := ans.Answers["o2"][0].Lo; got < 15.4 || got > 15.6 {
		t.Errorf("o2 takeover at %g, want ~15.5", got)
	}
	// Bad point dimension.
	if code := postJSON(t, ts.URL+"/query/knn", map[string]interface{}{
		"k": 1, "lo": 1, "hi": 30, "point": []float64{0},
	}, nil); code != 400 {
		t.Errorf("bad point code %d", code)
	}
	// Bad k.
	if code := postJSON(t, ts.URL+"/query/knn", map[string]interface{}{
		"k": 0, "lo": 1, "hi": 30, "point": []float64{0, 0},
	}, nil); code != 400 {
		t.Errorf("k=0 code %d", code)
	}
}

func TestWithinEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var ans struct {
		Answers map[string][]struct{ Lo, Hi float64 } `json:"answers"`
	}
	code := postJSON(t, ts.URL+"/query/within", map[string]interface{}{
		"radius": 6, "lo": 1, "hi": 30, "point": []float64{0, 0},
	}, &ans)
	if code != 200 {
		t.Fatalf("within code %d", code)
	}
	if len(ans.Answers["o1"]) != 1 {
		t.Errorf("o1 (5 away, radius 6): %v", ans.Answers)
	}
	if code := postJSON(t, ts.URL+"/query/within", map[string]interface{}{
		"radius": -1, "lo": 1, "hi": 30, "point": []float64{0, 0},
	}, nil); code != 400 {
		t.Errorf("negative radius code %d", code)
	}
}

func TestSnapshotEndpointRoundTrips(t *testing.T) {
	ts, db := newTestServer(t)
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	back, err := mod.LoadBinary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !back.StateEqual(db) {
		t.Errorf("snapshot round trip: len %d/%d tau %g/%g, or the trajectories differ",
			back.Len(), db.Len(), back.Tau(), db.Tau())
	}
}

// TestSnapshotEndpointIsTheEnginesSnapshot: GET /snapshot serves one
// format and reads no parameter: with and without ?format=binary it is
// byte for byte what the engine's merged copy writes with SaveBinary,
// as application/octet-stream, at one shard and at four, over a
// population with declared speed bounds and terminated objects.
func TestSnapshotEndpointIsTheEnginesSnapshot(t *testing.T) {
	for _, p := range []int{1, 4} {
		db, err := workload.RandomMovers(workload.Config{Seed: 7, N: 40, Turns: 2, TurnHorizon: 10})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := shard.FromDB(db, shard.Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		for o := mod.OID(1); o <= 40; o += 3 {
			if err := eng.Apply(mod.Bound(o, 20+float64(o), 12)); err != nil {
				t.Fatal(err)
			}
		}
		for o := mod.OID(2); o <= 40; o += 5 {
			if err := eng.Apply(mod.Terminate(o, 70+float64(o))); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(NewWithOptions(eng, Options{}))
		var want bytes.Buffer
		if err := eng.Snapshot().SaveBinary(&want); err != nil {
			t.Fatal(err)
		}
		for _, query := range []string{"", "?format=binary"} {
			resp, err := http.Get(ts.URL + "/snapshot" + query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("P=%d GET /snapshot%s: code %d, %v", p, query, resp.StatusCode, err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
				t.Errorf("P=%d GET /snapshot%s: Content-Type %q", p, query, ct)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("P=%d GET /snapshot%s: %d bytes differ from the engine snapshot's %d", p, query, len(got), want.Len())
			}
		}
		ts.Close()
	}
}

// writeOnTau is a backend that lands one update the first time its live
// Tau() is read: a write arriving between two reads of one request.
type writeOnTau struct {
	*shard.Engine
	once sync.Once
	u    mod.Update
	err  error // of the write, readable once once.Do has returned
}

func (b *writeOnTau) Tau() float64 {
	b.once.Do(func() { b.err = b.Engine.Apply(b.u) })
	return b.Engine.Tau()
}

// TestObjectsIsOneView: the list, tau and live count of GET /objects
// describe one state, even when a write lands while the request reads.
func TestObjectsIsOneView(t *testing.T) {
	eng, err := shard.New(shard.Config{Shards: 2, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyAll(
		mod.New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		mod.New(2, 1, geom.Of(0, 1), geom.Of(5, 5)),
		mod.New(3, 2, geom.Of(-1, 0), geom.Of(9, 9)),
		mod.Terminate(2, 3),
	); err != nil {
		t.Fatal(err)
	}
	terminated := map[uint64]bool{2: true}
	be := &writeOnTau{Engine: eng, u: mod.New(4, 4, geom.Of(0, 0), geom.Of(1, 1))}
	ts := httptest.NewServer(NewWithOptions(be, Options{}))
	defer ts.Close()
	var objs struct {
		Tau     float64  `json:"tau"`
		Objects []uint64 `json:"objects"`
		Live    int      `json:"live"`
	}
	if code := getJSON(t, ts.URL+"/objects", &objs); code != 200 {
		t.Fatalf("objects code %d", code)
	}
	be.once.Do(func() {})
	if be.err != nil {
		t.Fatalf("the write between reads failed: %v", be.err)
	}
	unterminated := 0
	for _, o := range objs.Objects {
		if !terminated[o] {
			unterminated++
		}
	}
	if objs.Live != unterminated {
		t.Errorf("objects = %+v: live %d, but %d listed objects are unterminated", objs, objs.Live, unterminated)
	}
	wantTau := 3.0 // the last update among objects 1-3
	if len(objs.Objects) == 4 {
		wantTau = 4
	}
	if objs.Tau != wantTau {
		t.Errorf("objects = %+v: tau %g, want %g for the listed objects", objs, objs.Tau, wantTau)
	}
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	ts, _ := newTestServer(t)
	// Hoist the URL: ts contains a mutex, so reading ts.URL inside the
	// goroutines would be an unsynchronized access to a guarded struct.
	url := ts.URL
	done := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func() {
			var firstErr error
			for j := 0; j < 20; j++ {
				code := postJSON(t, url+"/query/knn", map[string]interface{}{
					"k": 1, "lo": 1, "hi": 30, "point": []float64{0, 0},
				}, nil)
				if code != 200 && firstErr == nil {
					firstErr = fmt.Errorf("query code %d", code)
				}
			}
			done <- firstErr
		}()
	}
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			var firstErr error
			for j := 0; j < 20; j++ {
				// Distinct strictly-increasing taus per goroutine; 409s
				// from races are fine, 400/500s are not.
				tau := 10 + float64(i*20+j)
				code := postJSON(t, url+"/update", map[string]interface{}{
					"kind": "chdir", "oid": 1, "tau": tau, "a": []float64{1, 0},
				}, nil)
				if code != 200 && code != http.StatusConflict && firstErr == nil {
					firstErr = fmt.Errorf("update code %d", code)
				}
			}
			done <- firstErr
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
