package durable_test

// The live-checkpoint race: checkpoints must be safe to take while
// updates stream in and queries fan out, and whatever interleaving
// occurs, a subsequent recovery must reproduce the quiesced state
// bit-for-bit. Run under -race in CI, this is both the data-race check
// on the store/journal locking and a behavioral check that rotation
// never drops or duplicates an update.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/workload"
)

// genUpdates builds a chronological stream: n creations followed by m
// direction changes (and a few terminations — a terminated object is
// never updated again), taus strictly increasing.
func genUpdates(seed int64, n, m int) []mod.Update {
	rng := rand.New(rand.NewSource(seed))
	var us []mod.Update
	tau := 0.0
	dead := make(map[mod.OID]bool)
	vec := func(scale float64) geom.Vec {
		return geom.Of(scale*(rng.Float64()-0.5), scale*(rng.Float64()-0.5))
	}
	for i := 0; i < n; i++ {
		tau++
		us = append(us, mod.New(mod.OID(i+1), tau, vec(2), vec(200)))
	}
	for i := 0; i < m; i++ {
		o := mod.OID(rng.Intn(n) + 1)
		if dead[o] {
			continue
		}
		tau++
		if i%37 == 36 && len(dead) < n/4 {
			dead[o] = true
			us = append(us, mod.Terminate(o, tau))
			continue
		}
		us = append(us, mod.ChDir(o, tau, vec(2)))
	}
	return us
}

func TestConcurrentCheckpointUpdatesQueries(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	eng, err := durable.Open(dir, durable.Config{Shards: shards, Dim: 2, Tau0: 0})
	if err != nil {
		t.Fatal(err)
	}

	us := genUpdates(7, 60, 400)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Checkpointer: rotate journals continuously during the stream.
	checkpoints := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Checkpoint(); err != nil {
				t.Errorf("live checkpoint: %v", err)
				return
			}
			checkpoints++
		}
	}()

	// Queriers: past k-NN and within sweeps against the live engine.
	f := gdist.PointSq{Point: []float64{10, -10}}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, _, err := eng.KNN(f, 3, 0, 100); err != nil {
					t.Errorf("live knn: %v", err)
					return
				}
				if _, _, _, err := eng.Within(f, 50*50, 0, 100); err != nil {
					t.Errorf("live within: %v", err)
					return
				}
			}
		}()
	}

	// Updaters: the stream, partitioned by owning shard so per-shard
	// chronology holds, applied from one goroutine per shard.
	if err := workload.ReplayConcurrent(us, shards, eng.ShardOf, eng.Apply); err != nil {
		t.Fatalf("concurrent replay: %v", err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d checkpoints interleaved with %d updates", checkpoints, len(us))

	// Quiesce, shut down gracefully, recover, compare bit-for-bit.
	quiesced := eng.Snapshot()
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.Open(dir, durable.Config{Shards: shards, Dim: 2, Tau0: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Snapshot().StateEqual(quiesced) {
		t.Fatal("post-recovery state differs from the quiesced snapshot")
	}
}
