package durable_test

// The live-checkpoint race: checkpoints must be safe to take while
// updates stream in and queries fan out, and whatever interleaving
// occurs, recovery must reproduce every applied update. Run under -race
// in CI, this is both the data-race check on the store/journal locking
// and a behavioral check that rotation never drops or duplicates an
// update.

import (
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/gdist"
)

func TestConcurrentCheckpointUpdatesQueries(t *testing.T) {
	r := newRun(t, drive{shards: 4, writers: 2}, 7)
	r.cleanLife(r.mem, 4, func(eng *durable.Engine) {
		stop, checkpoints := make(chan struct{}), 0
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { // rotate journals continuously during the stream
			defer wg.Done()
			for ; !closed(stop); checkpoints++ {
				r.checkpoint(eng)
			}
		}()
		for q := 0; q < 2; q++ { // past k-NN and within sweeps
			go func() {
				defer wg.Done()
				f := gdist.PointSq{Point: []float64{10, -10}}
				for !closed(stop) {
					if _, _, _, err := eng.KNN(f, 3, 0, 1000); err != nil {
						t.Errorf("live knn: %v", err)
					}
					if _, _, _, err := eng.Within(f, 50*50, 0, 1000); err != nil {
						t.Errorf("live within: %v", err)
					}
				}
			}()
		}
		r.seeded(50)(eng)
		close(stop)
		wg.Wait()
		t.Logf("%d checkpoints interleaved with the updates", checkpoints)
	})
}

func closed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
