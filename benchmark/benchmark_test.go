package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// A percentile is reported only with at least ten samples beyond
	// it: this is the highest one each sample size supports.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {5000, 99},
	} {
		got := 0.0
		for _, p := range []float64{50, 90, 99} {
			if supported(c.n, p) {
				got = p
			}
		}
		if got != c.want {
			t.Errorf("highest supported percentile of %d samples = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4), the driver's rule.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// smokeTiming is long enough for every workload to answer a few dozen
// requests.
var smokeTiming = timing{warm: 100 * time.Millisecond, window: time.Second, setups: 1}

// planDigest hashes every byte a plan would put on the wire.
func planDigest(p *plan) string {
	var wire bytes.Buffer
	batches, err := p.pop.batches()
	if err != nil {
		panic(err)
	}
	for _, b := range batches {
		wire.Write(b)
	}
	for _, lane := range p.lanes {
		for i := range lane {
			fmt.Fprintf(&wire, "%s %d\n", opPath[lane[i].op], len(lane[i].body))
			wire.Write(lane[i].body)
		}
	}
	wire.Write(p.watch)
	return fmt.Sprintf("%x", sha256.Sum256(wire.Bytes()))
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			digest := func(seed int64) string {
				p, err := w.build(seed, smokeTiming)
				if err != nil {
					t.Fatal(err)
				}
				return planDigest(p)
			}
			a, b, c := digest(7), digest(7), digest(8)
			if a != b {
				t.Errorf("seed 7 generated two different request streams")
			}
			if a == c {
				t.Errorf("seeds 7 and 8 generated the same request stream")
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.knn", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server./query/knn", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "backend.KNN", Start: 20, End: 70},
		// Two children that overlap each other and one that runs past
		// its parent: covered time is counted once and clipped.
		{ID: 4, Name: "client.within", Start: 200, End: 300},
		{ID: 5, Parent: 4, Name: "server./query/within", Start: 210, End: 260},
		{ID: 6, Parent: 4, Name: "server./query/within", Start: 250, End: 320},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 20, 2: 30, 3: 50, 4: 10, 5: 50, 6: 70} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Nested spans: the layers' shares add up to the client total.
	shares := layerShares(spans[:3], selfTimes(spans[:3]))
	if got := shares["client"] + shares["server"] + shares["backend"]; math.Abs(got-1) > 1e-12 {
		t.Errorf("layer shares add up to %v, want 1", got)
	}
	if shares["backend"] != 0.5 {
		t.Errorf("backend share = %v, want 0.5", shares["backend"])
	}
}

func TestMetricsDelta(t *testing.T) {
	load := func(name string) counters {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return flattenMetrics(doc)
	}
	// Two scrapes of one modserve -shards 2: after its population was
	// loaded, and after 3 k-NN, 2 within, 2 possibly-within queries and
	// one more update.
	before, after := load("testdata/metrics_before.json"), load("testdata/metrics_after.json")
	d := after.minus(before)
	for key, want := range map[string]float64{
		"mod_query_seconds{kind=knn}.count":                             3,
		"mod_query_seconds{kind=within}.count":                          2,
		"bead_queries_total{kind=possibly-within}":                      2,
		"mod_http_requests_total{endpoint=POST /query/knn,code=200}":    3,
		"mod_http_request_seconds{endpoint=POST /query/within}.count":   2,
		"mod_knn_candidates.count":                                      3,
		"mod_http_requests_total{endpoint=POST /update/batch,code=200}": 0,
	} {
		if got := d[key]; got != want {
			t.Errorf("delta %s = %v, want %v", key, got, want)
		}
	}
	if got := d.total("mod_updates_total", ""); got != 1 {
		t.Errorf("updates applied across shards = %v, want 1", got)
	}
	if got := d.total("mod_query_seconds", ".count"); got != 7 {
		t.Errorf("queries of every kind = %v, want 7", got)
	}
	if d.total("mod_sweep_events_total", "") <= 0 {
		t.Errorf("no sweep events across five sweeps")
	}
	if got := d.total("mod_http_request_seconds", ".sum"); got <= 0 || got > 5 {
		t.Errorf("request seconds = %v, want a small positive time", got)
	}
	if after.highest("mod_sweep_max_queue_len") < 1 {
		t.Errorf("no queue high-water mark")
	}
}

func TestDeltaLagMatching(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sends := []sendRecord{{50.01, at(0)}, {50.02, at(10)}, {50.03, at(20)}, {50.04, at(30)}}
	recs := []watchRecord{
		{t: 50.02, received: at(13)},  // made visible by the update at 50.02 itself
		{t: 50.025, received: at(24)}, // a crossing between updates: visible with 50.03
		{t: 50.001, received: at(2)},  // before the first update: visible with 50.01
		{t: 50.5, received: at(40)},   // no update that late was sent: unmatched
	}
	got := deltaLags(recs, sends)
	want := []float64{2, 3, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lags = %v ms, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op1_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v} }
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady(10), steady(10.5), verdictOK},
		{lower, steady(10), steady(11.5), verdictWorse},
		{lower, steady(10), steady(8), verdictOK},
		{higher, steady(100), steady(85), verdictWorse},
		{higher, steady(100), steady(120), verdictOK},
		{lower, []float64{8, 10, 12, 14}, steady(14), verdictUnresolved},
	} {
		if _, _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestContractMatchesTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var generated bytes.Buffer
	if err := printContract(&generated); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, generated.Bytes()) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; regenerate it with: go run . -contract > ../BENCHMARK.json")
	}
}

// TestSmoke drives each workload's generated requests through an
// in-process server for a second and runs its checker.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			const seed = 3
			ctx := context.Background()
			p, err := w.build(seed, smokeTiming)
			if err != nil {
				t.Fatal(err)
			}
			dataDir := ""
			if w.durable {
				dataDir = t.TempDir()
			}
			ip, err := startInProcess(dataDir)
			if err != nil {
				t.Fatal(err)
			}
			defer ip.target.stop()
			batches, err := p.pop.batches()
			if err != nil {
				t.Fatal(err)
			}
			if err := preload(ctx, ip.target.base, batches); err != nil {
				t.Fatal(err)
			}
			d, err := drive(ctx, ip.target, p, p.lanes, smokeTiming, driveHooks{})
			if err != nil {
				t.Fatal(err)
			}
			if d.attempted() == 0 || d.failed() != 0 {
				t.Fatalf("attempted %d, failed %d", d.attempted(), d.failed())
			}
			var checked int
			var mismatches []string
			switch {
			case p.replay:
				_, checked, mismatches, err = checkStatic(ctx, ip.target.base, p.pop.model, p.lanes, 4)
			case p.watch != nil:
				checked, mismatches, err = checkLive(p.pop.model, p.lanes[0], &d.lanes[0])
			case w.durable:
				model, merr := durableModel(p, seed, d)
				if merr != nil {
					t.Fatal(merr)
				}
				checked = 1
				var bad string
				if bad, err = compareState(ctx, ip.target.base, model); bad != "" {
					mismatches = append(mismatches, bad)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Errorf("the checker compared nothing")
			}
			for _, bad := range mismatches {
				t.Error(bad)
			}
		})
	}
}
