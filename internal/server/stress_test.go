package server

// Concurrency stress: hammer a sharded backend with interleaved
// POST /update and POST /query/knn (+ /query/within) traffic. The test
// asserts nothing clever about answers — its job is to drive the
// fan-out, routing, snapshot and journal-listener paths hard enough
// that `go test -race ./internal/server/...` (a tier-1 gate) would
// catch unsynchronized state.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/mod"
	"repro/internal/shard"
	"repro/internal/workload"
)

func TestStressInterleavedUpdatesAndQueries(t *testing.T) {
	const shards = 4
	db, err := workload.ConvergingMovers(workload.Config{Seed: 17, N: 80})
	if err != nil {
		t.Fatal(err)
	}
	us, err := workload.Stream(db, workload.StreamConfig{Seed: 18, Count: 240, From: 1, To: 30})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.FromDB(db, shard.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithOptions(eng, Options{}))
	defer ts.Close()

	post := func(path string, body interface{}) (int, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		_ = resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Partition the chronological stream by shard so each updater
	// goroutine keeps its shard's chronology while racing the others.
	groups := make([][]mod.Update, shards)
	for _, u := range us {
		i := eng.ShardOf(u.O)
		groups[i] = append(groups[i], u)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, shards+3)
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g []mod.Update) {
			defer wg.Done()
			for _, u := range g {
				code, err := post("/update", u)
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("shard %d: update %s -> HTTP %d", i, u, code)
					return
				}
			}
		}(i, g)
	}
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				code, err := post("/query/knn", map[string]interface{}{
					"k": 1 + q, "lo": 0, "hi": 20, "point": []float64{float64(10 * q), 0},
				})
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("querier %d: knn -> HTTP %d", q, code)
					return
				}
				code, err = post("/query/within", map[string]interface{}{
					"radius": 300, "lo": 0, "hi": 20, "point": []float64{0, float64(5 * q)},
				})
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("querier %d: within -> HTTP %d", q, code)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Everything applied: the aggregate view reflects the full stream.
	var health struct {
		Objects int     `json:"objects"`
		Tau     float64 `json:"tau"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Objects != eng.Len() || health.Objects < 80 {
		t.Fatalf("healthz reports %d objects (engine %d)", health.Objects, eng.Len())
	}
	if health.Tau != us[len(us)-1].Tau {
		t.Fatalf("tau = %g, want %g (last update)", health.Tau, us[len(us)-1].Tau)
	}
}
