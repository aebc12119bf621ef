package server

// The append encoder of answer.go against encoding/json: the envelope
// it writes must be, byte for byte, what json.Marshal wrote for the map
// the handlers used to build — kept here as the reference — and what
// the encoder wrote when it still sorted a copy of the answer
// (refAppendAnswer, kept here too).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/workload"
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

// refAppendAnswer is appendAnswer as it was before the answer came as a
// sorted run: every object copied into an entry list, the list sorted
// into key order, every float formatted afresh.
func refAppendAnswer(dst []byte, ans *query.AnswerSet, cls query.Class, tau float64, events int) ([]byte, error) {
	type entry struct {
		answerEntry
		ivs []query.Interval
	}
	var entries []entry
	for _, o := range ans.Objects() {
		digits := 1
		for digits < len(pow10) && uint64(o) >= pow10[digits] {
			digits++
		}
		entries = append(entries, entry{newAnswerEntry(o, digits), ans.Intervals(o)})
	}
	slices.SortFunc(entries, func(a, b entry) int { return compareAnswerEntries(a.answerEntry, b.answerEntry) })

	var err error
	dst = append(dst, `{"class":"`...)
	dst = append(dst, cls.String()...)
	dst = append(dst, `","tau":`...)
	if dst, err = appendFloat(dst, tau); err != nil {
		return nil, err
	}
	dst = append(dst, `,"answers":{`...)
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"o`...)
		dst = strconv.AppendUint(dst, uint64(e.o), 10)
		dst = append(dst, `":[`...)
		for j, iv := range e.ivs {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"lo":`...)
			if dst, err = appendFloat(dst, iv.Lo); err != nil {
				return nil, err
			}
			dst = append(dst, `,"hi":`...)
			if dst, err = appendFloat(dst, iv.Hi); err != nil {
				return nil, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `},"events":`...)
	dst = strconv.AppendInt(dst, int64(events), 10)
	return append(dst, '}'), nil
}

// checkGolden holds appendAnswer to json.Marshal and to the sorting
// encoder on one answer.
func checkGolden(t *testing.T, name string, ans *query.AnswerSet, cls query.Class, tau float64, events int) {
	t.Helper()
	want, err := json.Marshal(toAnswerJSON(ans, cls, tau, events))
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, objects, err := appendAnswer([]byte("kept"), ans, cls, tau, events)
	if err != nil {
		t.Fatalf("%s: appendAnswer: %v", name, err)
	}
	if got, ok := bytes.CutPrefix(got, []byte("kept")); !ok || !bytes.Equal(got, want) {
		t.Errorf("%s:\n got  %s\n want %s", name, got, want)
	}
	if objects != len(ans.Objects()) {
		t.Errorf("%s: %d objects reported, the answer names %d", name, objects, len(ans.Objects()))
	}
	if sorted, err := refAppendAnswer(nil, ans, cls, tau, events); err != nil || !bytes.Equal(sorted, want) {
		t.Errorf("%s: the sorting encoder: %v\n got  %s\n want %s", name, err, sorted, want)
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
	// The same bounds twice, so both are remembered, then a bad one in
	// each remembered place.
	memoHi, memoLo := query.NewAnswerSet(), query.NewAnswerSet()
	for _, ans := range []*query.AnswerSet{memoHi, memoLo} {
		for o := mod.OID(1); o <= 2; o++ {
			ans.Enter(o, 5)
			ans.Leave(o, 6)
		}
	}
	memoHi.Enter(3, 5)
	memoHi.Leave(3, math.Inf(1))
	memoLo.Enter(3, math.Inf(-1))
	memoLo.Leave(3, 6)
	for name, tc := range map[string]struct {
		ans *query.AnswerSet
		tau float64
	}{
		"interval":    {bad, 0},
		"tau":         {query.NewAnswerSet(), math.NaN()},
		"memoised hi": {memoHi, 0},
		"memoised lo": {memoLo, 0},
	} {
		_, wantErr := json.Marshal(toAnswerJSON(tc.ans, query.Past, tc.tau, 0))
		_, _, err := appendAnswer(nil, tc.ans, query.Past, tc.tau, 0)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: appendAnswer error %v, encoding/json %v", name, err, wantErr)
		}
	}

	ts := httptest.NewServer(NewWithOptions(&stubBackend{ans: bad}, Options{}))
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

// TestAppendAnswerAllocations: into a buffer that has held an answer of
// the size — what the pool hands okAnswer — the encoder allocates
// nothing, whatever the answer's size: no entry list, no sort, no
// buffer.
func TestAppendAnswerAllocations(t *testing.T) {
	for _, n := range []int{10, 2000} {
		ans := query.NewAnswerSet()
		for o := 0; o < n; o++ {
			ans.Enter(mod.OID(o*7), float64(o))
			ans.Leave(mod.OID(o*7), float64(o)+0.25)
		}
		ans.Finish(1e6)
		buf, _, err := appendAnswer(nil, ans, query.Past, 1e6, 0)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := appendAnswer(buf[:0], ans, query.Past, 1e6, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("appendAnswer of %d objects into a used buffer: %v allocations, want 0", n, allocs)
		}
	}
}

// edgeOIDs covers every decimal length with its least and greatest
// numeral, numerals that prefix one another (o1, o10, o100 before o2)
// and the largest OID.
func edgeOIDs() []mod.OID {
	out := []mod.OID{0, 1, 2, 10, 100, 11, 12, 20, 21, 101, 1000, math.MaxUint64, math.MaxUint64 - 1}
	for p := uint64(1); ; p *= 10 {
		out = append(out, mod.OID(p), mod.OID(p+1), mod.OID(p-1), mod.OID(2*p), mod.OID(p+p/10))
		if p > math.MaxUint64/10 {
			break
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestAppendAnswerMatchesReferencesOverRuns: the run-walking encoder
// against encoding/json and the sorting encoder over random subsets of
// every decimal length, on the three kinds of set a handler can be
// handed: born whole and merged by a sharded possibly-within at
// P in {1, 2, 4, 7} (most intervals clipped to the window's bounds: the
// remembered texts are reused), swept and finished, and still
// accumulating with open-only objects.
func TestAppendAnswerMatchesReferencesOverRuns(t *testing.T) {
	edges := edgeOIDs()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var oids []mod.OID
		for _, o := range edges {
			if rng.Intn(3) > 0 {
				oids = append(oids, o)
			}
		}
		for n := rng.Intn(50); n > 0; n-- {
			oids = append(oids, mod.OID(rng.Uint64()>>uint(rng.Intn(64))))
		}
		slices.Sort(oids)
		oids = slices.Compact(oids)

		// Objects parked around the origin, some beyond reach, some
		// stopped early or started late so their intervals are their own.
		// The database refuses OIDs above mod.MaxOID; the sets built
		// directly below keep every decimal length.
		db := mod.NewDB(2, -1)
		tau := 0.0
		stored := 0
		for _, o := range oids {
			if o > mod.MaxOID {
				continue
			}
			stored++
			tau += 0.01
			pos := geom.Of(20*rng.NormFloat64(), 20*rng.NormFloat64())
			if err := db.Apply(mod.New(o, tau, pos, geom.Of(rng.NormFloat64(), 0))); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []int{1, 2, 4, 7} {
			eng, err := shard.FromDB(db.Snapshot(), shard.Config{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			ans, _, err := eng.PossiblyWithin(geom.Of(0, 0), 25, tau+1, tau+9, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Objects()) < stored/4 {
				t.Fatalf("seed %d P=%d: only %d of %d objects answer", seed, p, len(ans.Objects()), stored)
			}
			checkGolden(t, fmt.Sprintf("seed %d born whole P=%d", seed, p), ans, query.Past, tau, 0)
		}

		swept := query.NewAnswerSet()
		for _, i := range rng.Perm(len(oids)) {
			at := float64(rng.Intn(3))
			for k := rng.Intn(3); k > 0; k-- {
				swept.Enter(oids[i], at)
				at += 2
				swept.Leave(oids[i], at)
				at += float64(1 + rng.Intn(2))
			}
			if rng.Intn(4) == 0 {
				swept.Enter(oids[i], at) // open: alone, an empty list
			}
		}
		checkGolden(t, fmt.Sprintf("seed %d accumulating", seed), swept, query.Continuing, 3, seed2int(seed))
		swept.Finish(9)
		checkGolden(t, fmt.Sprintf("seed %d swept", seed), swept, query.Past, 9, seed2int(seed))
		checkGolden(t, fmt.Sprintf("seed %d merged", seed), query.MergeDisjoint(nil, swept, query.NewAnswerSet()), query.Past, 9, 1)
	}
}

func seed2int(seed int64) int { return int(seed * 37) }

// TestOkAnswerSharesThePoolSafely: two goroutines answer different
// questions through the pooled buffer; under -race a buffer still being
// written while another request encodes into it is a report, and either
// way each body must be its own answer.
func TestOkAnswerSharesThePoolSafely(t *testing.T) {
	answers := make([]*query.AnswerSet, 2)
	want := make([][]byte, 2)
	for g := range answers {
		ans := query.NewAnswerSet()
		for o := 0; o < 300+900*g; o++ {
			ans.Enter(mod.OID(o*(3+g)), float64(g))
			ans.Leave(mod.OID(o*(3+g)), float64(o+1))
		}
		ans.Finish(1e4)
		data, err := json.Marshal(toAnswerJSON(ans, query.Past, 7, 0))
		if err != nil {
			t.Fatal(err)
		}
		answers[g], want[g] = ans, append(data, '\n')
	}
	var wg sync.WaitGroup
	for g := range answers {
		ts := httptest.NewServer(NewWithOptions(&stubBackend{ans: answers[g], ansTau: 7}, Options{}))
		defer ts.Close()
		url := ts.URL + "/query/possibly-within"
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Post(url, "application/json",
					strings.NewReader(`{"radius":1,"lo":0,"hi":1,"point":[0,0],"vmax":1}`))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil || !bytes.Equal(body, want[g]) {
					t.Errorf("goroutine %d request %d: %v, a body of %d bytes that is not its answer (%d bytes)", g, i, err, len(body), len(want[g]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// uncertainPopulation is n random movers with two turns each, a third
// of them with a declared speed bound — the shape of the benchmark's
// uncertain-read population.
func uncertainPopulation(tb testing.TB, n int) *mod.DB {
	tb.Helper()
	db, err := workload.RandomMovers(workload.Config{Seed: 11, N: n, Turns: 2, TurnHorizon: 40})
	if err != nil {
		tb.Fatal(err)
	}
	tau := db.Tau()
	for _, o := range db.Objects() {
		if o%3 == 0 {
			tau += 1e-3
			if err := db.Apply(mod.Bound(o, tau, 20)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

func BenchmarkEncodeAnswer(b *testing.B) {
	ans := query.NewAnswerSet()
	for o := 0; o < 1800; o++ {
		ans.Enter(mod.OID(o*5+1), 100+float64(o)/7)
		ans.Leave(mod.OID(o*5+1), 130+float64(o)/3)
	}
	ans.Finish(1e6)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, err := appendAnswer(buf[:0], ans, query.Past, 1e6, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		buf = data
	}
}

// BenchmarkPossiblyWithinAnswerPath is what a possibly-within request
// costs between the handler's decode and its write: the sharded query
// at P = 2 (candidates, kernel, one run per shard, the merge) and the
// encoding of the merged run into a reused buffer.
func BenchmarkPossiblyWithinAnswerPath(b *testing.B) {
	eng, err := shard.FromDB(uncertainPopulation(b, 10000), shard.Config{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	q := geom.Of(100, -50)
	var buf []byte
	objects := 0
	b.ReportAllocs()
	for i := 0; i < b.N+1; i++ {
		if i == 1 {
			b.ResetTimer() // the first query built the indexes
		}
		ans, tau, err := eng.PossiblyWithin(q, 300, 10, 30, 15)
		if err != nil {
			b.Fatal(err)
		}
		if buf, objects, err = appendAnswer(buf[:0], ans, query.Past, tau, 0); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(buf)))
	}
	b.ReportMetric(float64(objects), "objects")
}
