package shard

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestInstrumentRecordsEngineWork: after updates and queries, the
// registry must carry per-shard update counts, sweep work and latency
// observations — and an uninstrumented engine must keep working.
func TestInstrumentRecordsEngineWork(t *testing.T) {
	db, err := workload.RandomMovers(workload.Config{Seed: 5, N: 60})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := FromDB(db, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.Instrument(reg)

	tau := eng.Tau()
	if err := eng.Apply(mod.ChDir(eng.Snapshot().Objects()[0], tau+1, []float64{1, 0})); err != nil {
		t.Fatal(err)
	}
	// A rejected update counts as an error, not an update.
	if err := eng.Apply(mod.ChDir(eng.Snapshot().Objects()[0], tau, []float64{1, 0})); err == nil {
		t.Fatal("stale update should fail")
	}

	f := gdist.PointSq{Point: []float64{0, 0}}
	if _, _, _, err := eng.KNN(f, 3, 0, 20); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.Within(f, 900, 0, 20); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"mod_updates_total{shard=",
		"mod_update_errors_total 1",
		"mod_sweep_events_total{shard=",
		"mod_sweep_max_queue_len{shard=",
		"mod_shard_sweep_seconds_bucket{shard=",
		`mod_query_seconds_count{kind="knn"} 1`,
		`mod_query_seconds_count{kind="within"} 1`,
		"mod_knn_candidates_count 1",
		// The coordinator's final k-NN sweep shows up under its own label.
		`mod_shard_sweep_seconds_count{shard="coord"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestUninstrumentedEngineRecordsNothing: record points are nil-safe.
func TestUninstrumentedEngineRecordsNothing(t *testing.T) {
	db, err := workload.RandomMovers(workload.Config{Seed: 5, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := FromDB(db, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(mod.ChDir(eng.Snapshot().Objects()[0], eng.Tau()+1, []float64{1, 0})); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.KNN(gdist.PointSq{Point: []float64{0, 0}}, 2, 0, 10); err != nil {
		t.Fatal(err)
	}
}

// TestKNNRunsOneSweepPerQuery: the shards only scan; the single bounded
// sweep over the merged pool is the coordinator's — at every P, and with
// one candidate-pool observation a query.
func TestKNNRunsOneSweepPerQuery(t *testing.T) {
	for _, p := range []int{1, 4} {
		db, err := workload.RandomMovers(workload.Config{Seed: 5, N: 200})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := FromDB(db, Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		eng.Instrument(reg)
		_, st, _, err := eng.KNN(gdist.PointSq{Point: []float64{0, 0}}, 3, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.Inserts >= 100 {
			t.Errorf("P=%d: %d curves inserted, want a small pool out of 200 objects", p, st.Inserts)
		}
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		sweeps := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "mod_shard_sweep_seconds_count{") {
				if !strings.HasSuffix(line, " 1") {
					t.Errorf("P=%d: %s, want one sweep under the label", p, line)
				}
				sweeps++
			}
		}
		if sweeps != 1 || !strings.Contains(buf.String(), "mod_knn_candidates_count 1") {
			t.Errorf("P=%d: %d sweep labels recorded, want exactly one sweep and one pool observation:\n%s", p, sweeps, buf.String())
		}
	}
}
