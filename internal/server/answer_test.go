package server

// The append encoder of answer.go against encoding/json: the envelope
// it writes must be, byte for byte, what json.Marshal wrote for the map
// the handlers used to build — kept here as the reference.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mod"
	"repro/internal/query"
)

type answerJSON struct {
	Class   string                    `json:"class"`
	Tau     float64                   `json:"tau"`
	Answers map[string][]intervalJSON `json:"answers"`
	Events  int                       `json:"events"`
}

type intervalJSON struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// toAnswerJSON is the builder the handlers handed to json.Marshal
// before the append encoder.
func toAnswerJSON(ans *query.AnswerSet, cls query.Class, tau float64, events int) answerJSON {
	out := answerJSON{Class: cls.String(), Tau: tau, Answers: map[string][]intervalJSON{}, Events: events}
	for _, o := range ans.Objects() {
		// Start non-nil so an object with an empty interval list
		// marshals as [] — clients iterate the wire value, and null
		// breaks them.
		ivs := []intervalJSON{}
		for _, iv := range ans.Intervals(o) {
			ivs = append(ivs, intervalJSON{Lo: iv.Lo, Hi: iv.Hi})
		}
		out.Answers[o.String()] = ivs
	}
	return out
}

// checkGolden holds appendAnswer to json.Marshal on one answer.
func checkGolden(t *testing.T, name string, ans *query.AnswerSet, cls query.Class, tau float64, events int) {
	t.Helper()
	want, err := json.Marshal(toAnswerJSON(ans, cls, tau, events))
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := appendAnswer(nil, ans, cls, tau, events)
	if err != nil {
		t.Fatalf("%s: appendAnswer: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s:\n got  %s\n want %s", name, got, want)
	}
}

func TestAppendAnswerMatchesEncodingJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)

	// Keys across digit counts: the map order is the strings', so o10
	// and o100 go before o2, and o9 after o18446744073709551615.
	digits := query.NewAnswerSet()
	for i, o := range []mod.OID{0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 1000, 12345, 123450, 1 << 48,
		999999999999999999, 1000000000000000000, 9999999999999999999, 10000000000000000000,
		10000000000000000001, 1844674407370955161, 18446744073709551610, math.MaxUint64} {
		digits.Point(o, float64(i))
	}
	digits.Enter(7, 3) // a membership still open: listed, with an empty list
	checkGolden(t, "digit counts", digits, query.Continuing, 12.5, 7)

	empty := query.NewAnswerSet()
	empty.Finish(0)
	for _, cls := range []query.Class{query.Past, query.Future, query.Continuing, query.Class(99)} {
		checkGolden(t, "empty/"+cls.String(), empty, cls, -3, 0)
	}

	floats := query.NewAnswerSet()
	for i, f := range []float64{0, negZero, 1, -1, 0.1, 1e21, 1e21 - 65536, 1.5e21, 1e-6, 1e-7, 9.99e-7, 1.234e-9,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 123456789.125, 1e20, 1e300, -4e-12,
		math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), 100, 1e6} {
		floats.Point(mod.OID(i), f)       // lo == hi: a point interval
		floats.Enter(mod.OID(100+i), f-1) // and a proper one ending in f
		floats.Leave(mod.OID(100+i), f)
	}
	floats.Finish(1e22)
	checkGolden(t, "floats", floats, query.Past, negZero, -1)
	checkGolden(t, "floats/tau", floats, query.Past, 1e-7, math.MaxInt64)

	// Several intervals per object, from random data.
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		ans := query.NewAnswerSet()
		for n := rng.Intn(40); n > 0; n-- {
			o := mod.OID(rng.Uint64() >> uint(rng.Intn(64)))
			at := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			for k := rng.Intn(4); k >= 0; k-- {
				ans.Enter(o, at)
				at += 1 + math.Abs(at)*rng.Float64()
				ans.Leave(o, at)
				at += 1 + math.Abs(at)*rng.Float64()
			}
		}
		checkGolden(t, "random", ans, query.Future, rng.NormFloat64(), rng.Intn(1000))
	}
}

// TestNonFiniteAnswerIsACleanError: a non-finite float anywhere in the
// envelope is the error encoding/json reports, and through the handler
// a 500 with the error envelope and no answer bytes — the header is not
// written before the body is known to encode.
func TestNonFiniteAnswerIsACleanError(t *testing.T) {
	bad := query.NewAnswerSet()
	bad.Point(1, 5)
	bad.Enter(2, 6)
	bad.Leave(2, math.Inf(1))
	for name, tc := range map[string]struct {
		ans *query.AnswerSet
		tau float64
	}{
		"interval": {bad, 0},
		"tau":      {query.NewAnswerSet(), math.NaN()},
	} {
		_, wantErr := json.Marshal(toAnswerJSON(tc.ans, query.Past, tc.tau, 0))
		_, err := appendAnswer(nil, tc.ans, query.Past, tc.tau, 0)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: appendAnswer error %v, encoding/json %v", name, err, wantErr)
		}
	}

	ts := httptest.NewServer(New(&stubBackend{ans: bad}, nil))
	defer ts.Close()
	for _, req := range []struct{ path, body string }{
		{"/query/knn", `{"k":1,"lo":0,"hi":1,"point":[0,0]}`},
		{"/query/within", `{"radius":1,"lo":0,"hi":1,"point":[0,0]}`},
		{"/query/possibly-within", `{"radius":1,"lo":0,"hi":1,"point":[0,0],"vmax":1}`},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		var env struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &env) != nil ||
			!strings.Contains(env.Error, "unsupported value: +Inf") || strings.Contains(string(body), "answers") {
			t.Errorf("%s: code %d body %q, want a 500 error envelope naming +Inf", req.path, resp.StatusCode, body)
		}
	}
}

// TestAppendAnswerAllocations: the encoder's allocations do not grow
// with the answer — the entry list it sorts and the output buffer.
func TestAppendAnswerAllocations(t *testing.T) {
	for _, n := range []int{10, 2000} {
		ans := query.NewAnswerSet()
		for o := 0; o < n; o++ {
			ans.Enter(mod.OID(o*7), float64(o))
			ans.Leave(mod.OID(o*7), float64(o)+0.25)
		}
		ans.Finish(1e6)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := appendAnswer(nil, ans, query.Past, 1e6, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("appendAnswer of %d objects: %v allocations, want at most 4", n, allocs)
		}
	}
}

func BenchmarkEncodeAnswer(b *testing.B) {
	ans := query.NewAnswerSet()
	for o := 0; o < 1800; o++ {
		ans.Enter(mod.OID(o*5+1), 100+float64(o)/7)
		ans.Leave(mod.OID(o*5+1), 130+float64(o)/3)
	}
	ans.Finish(1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := appendAnswer(nil, ans, query.Past, 1e6, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}
