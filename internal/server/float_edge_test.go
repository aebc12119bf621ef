package server

// Regression tests for the float-edge wire bugs: a non-finite value in
// a response used to fail inside json.Encoder AFTER the 200 header was
// written, handing the client a truncated body with a success status;
// and the /query/* handlers accepted non-finite window bounds and
// query points. The buffered ok() turns encode failures into clean
// 500s, and finite()/finiteVec() reject NaN/±Inf parameters with 400.
//
// Strict JSON cannot express NaN or Inf (the decoder rejects 1e999
// with a range error), so the non-finite *request* path is exercised
// two ways: the validators are unit-tested directly, and the binary
// batch codec — which CAN carry ±Inf coefficients on the wire — is
// shown to be gated at Apply.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/shard"
)

// TestNonFiniteResponseSurfacesAs500: a backend answer carrying a
// non-finite tau (an empty store's tau0 is -Inf) must produce a 500
// with a well-formed error envelope — not a 200 with a truncated body.
func TestNonFiniteResponseSurfacesAs500(t *testing.T) {
	ans := query.NewAnswerSet()
	ans.Finish(0)
	be := &stubBackend{liveTau: math.Inf(-1), ansTau: math.Inf(-1), ans: ans}
	ts := httptest.NewServer(NewWithOptions(be, Options{}))
	defer ts.Close()

	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"query/knn", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query/knn", "application/json",
				strings.NewReader(`{"k":1,"lo":0,"hi":1,"point":[0,0]}`))
		}},
		{"objects", func() (*http.Response, error) {
			return http.Get(ts.URL + "/objects")
		}},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s with -Inf tau: code %d (body %q), want 500", tc.name, resp.StatusCode, body)
			continue
		}
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
			t.Errorf("%s error body %q is not a valid error envelope: %v", tc.name, body, err)
		}
	}
}

// TestQueryRejectsNonFiniteParams pins the validator behavior (strict
// JSON can't deliver NaN/Inf end-to-end, so the helpers are the unit
// under test) and the end-to-end 400 for an out-of-range literal.
func TestQueryRejectsNonFiniteParams(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := finite("x", v); err == nil {
			t.Errorf("finite(%g) = nil, want error", v)
		}
		if err := finiteVec("p", []float64{0, v}); err == nil {
			t.Errorf("finiteVec(..%g) = nil, want error", v)
		}
	}
	if err := finite("x", 1e308); err != nil {
		t.Errorf("finite(1e308) = %v, want nil", err)
	}
	if err := finiteVec("p", []float64{0, -1e308}); err != nil {
		t.Errorf("finiteVec(-1e308) = %v, want nil", err)
	}

	// End-to-end: an overflow literal must come back 400 with a valid
	// error envelope, never a truncated or empty body.
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/query/knn", "application/json",
		strings.NewReader(`{"k":1,"lo":0,"hi":1e999,"point":[0,0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hi=1e999: code %d, want 400", resp.StatusCode)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == "" {
		t.Fatalf("error body not a valid envelope: %v", err)
	}
}

// TestBinaryBatchIngest: the compact codec round-trips a batch through
// POST /update/batch, and a batch carrying ±Inf coefficients — which
// the binary wire CAN express, unlike JSON — is rejected at Apply with
// a 400 rather than poisoning the store.
func TestBinaryBatchIngest(t *testing.T) {
	db := mod.NewDB(2, -1)
	ts := httptest.NewServer(NewWithOptions(shard.Single(db), Options{}))
	defer ts.Close()

	good := []mod.Update{
		mod.New(1, 0, geom.Of(1, 2), geom.Of(0, 0)),
		mod.ChDir(1, 1, geom.Of(-1, 0)),
	}
	var buf bytes.Buffer
	if err := mod.EncodeUpdatesBinary(&buf, good); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/update/batch", mod.BinaryUpdatesContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Applied int     `json:"applied"`
		Tau     float64 `json:"tau"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || out.Applied != 2 || out.Tau != 1 {
		t.Fatalf("binary batch: code %d, applied %d, tau %g", resp.StatusCode, out.Applied, out.Tau)
	}

	// ±Inf in a velocity: representable on the wire, rejected at Apply.
	buf.Reset()
	bad := []mod.Update{mod.New(2, 2, geom.Of(0, 0), geom.Of(math.Inf(1), 0))}
	if err := mod.EncodeUpdatesBinary(&buf, bad); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/update/batch", mod.BinaryUpdatesContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("+Inf coefficient batch: code %d, want 400", resp.StatusCode)
	}
	if db.Len() != 1 {
		t.Fatalf("store holds %d objects after rejected batch, want 1", db.Len())
	}

	// A corrupt frame is a strict 400 before anything applies.
	resp, err = http.Post(ts.URL+"/update/batch", mod.BinaryUpdatesContentType,
		strings.NewReader("MODU\x01\xff\xff\xff"))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt binary batch: code %d, want 400", resp.StatusCode)
	}
}

// TestBinarySnapshotEndpoint: GET /snapshot?format=binary, the request
// clients written for the old format switch send, still streams the
// binary snapshot; LoadBinary round-trips it StateEqual.
func TestBinarySnapshotEndpoint(t *testing.T) {
	ts, db := newTestServer(t)
	resp, err := http.Get(ts.URL + "/snapshot?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("binary snapshot: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("Content-Type %q", ct)
	}
	got, err := mod.LoadBinary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !got.StateEqual(db) {
		t.Fatal("binary snapshot round-trip is not StateEqual")
	}
}
