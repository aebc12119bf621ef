package sub_test

// Churn stress: a single chronological update storm races subscriber
// churn (subscribe, drain a while, cancel), deliberately slow consumers
// (never pop, tight queues), and durable checkpoints; run under -race
// in CI. The assertions are liveness (the test finishes), delivery-
// contract safety (no delta poppable after Cancel, sequence numbers
// strictly increase, a churner ends with ErrCanceled unless it was
// evicted before it canceled), and eviction (every slow consumer ends
// with ErrSlowConsumer while the update path keeps making progress).
//
// Eviction is asserted in a deterministic second phase: how many deltas
// the racy storm yields depends on how far the pump lags the appliers —
// a lagging pump rebuilds subscriptions from a snapshot that already
// absorbed most of the storm, legitimately collapsing hundreds of
// answer changes into a few records. So after the storm one fresh
// object zigzags across every slow consumer's radius with a Sync
// between legs: each leg is exactly one guaranteed membership flip,
// and a handful of flips overflows a queue of 2 with a coalesce budget
// of 2 regardless of how the storm interleaved.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/sub"
)

func TestStressChurnEvictionCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	eng, err := durable.Open(t.TempDir(), durable.Config{
		Shards: 4, Dim: 2, Tau0: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Hot region around the origin: every query point lands in it, so
	// answers churn across all subscriptions.
	const nObjects = 24
	rng := rand.New(rand.NewSource(97))
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	tau := 0.0
	for i := 1; i <= nObjects; i++ {
		tau += 0.01
		if err := eng.Apply(mod.New(mod.OID(i), tau, vec(4), vec(60))); err != nil {
			t.Fatal(err)
		}
	}

	reg := sub.NewRegistryWithQueue(eng, 2, 2)
	defer reg.Close()

	const updates = 1500
	storm := make([]mod.Update, 0, updates)
	for i := 0; i < updates; i++ {
		tau += 0.01 + 0.03*rng.Float64()
		o := mod.OID(rng.Intn(nObjects) + 1)
		storm = append(storm, mod.ChDir(o, tau, vec(4)))
	}

	done := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup

	// Slow consumers: subscribe and never pop.
	slow := make([]*sub.Stream, 0, 3)
	for i := 0; i < 3; i++ {
		st, err := reg.Subscribe(sub.Query{Kind: sub.Within, Radius: 20 + 5*float64(i), Point: geom.Of(0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		slow = append(slow, st)
	}

	// Churners: subscribe, replay deltas (validating the protocol), then
	// cancel mid-stream and verify nothing is poppable afterwards.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(int64(1000 + c)))
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				var q sub.Query
				if crng.Intn(2) == 0 {
					q = sub.Query{Kind: sub.KNN, K: 1 + crng.Intn(3),
						Point: geom.Of(10*(crng.Float64()-0.5), 10*(crng.Float64()-0.5))}
				} else {
					q = sub.Query{Kind: sub.Within, Radius: 10 + 20*crng.Float64(),
						Point: geom.Of(10*(crng.Float64()-0.5), 10*(crng.Float64()-0.5))}
				}
				st, err := reg.Subscribe(q)
				if err != nil {
					errs <- fmt.Errorf("churner %d: subscribe: %w", c, err)
					return
				}
				client := newSubClient(st, fmt.Sprintf("churner%d/%d", c, round))
				lastSeq := st.InitialSeq()
				deadline := time.After(10 * time.Millisecond)
			drainLoop:
				for {
					select {
					case <-st.Ready():
						for {
							d, ok := st.Pop()
							if !ok {
								break
							}
							if d.Seq <= lastSeq {
								errs <- fmt.Errorf("churner %d: seq %d after %d", c, d.Seq, lastSeq)
								return
							}
							lastSeq = d.Seq
						}
					case <-st.Done():
						break drainLoop
					case <-deadline:
						break drainLoop
					}
				}
				_ = client
				// A churner shares the registry's tight queue limits, so
				// one starved during the storm is evicted like any slow
				// consumer; Cancel on a terminated stream keeps the
				// terminal error it already has.
				want := sub.ErrCanceled
				select {
				case <-st.Done():
					want = sub.ErrSlowConsumer
				default:
				}
				st.Cancel()
				if d, ok := st.Pop(); ok {
					errs <- fmt.Errorf("churner %d: delta (seq %d) poppable after Cancel", c, d.Seq)
					return
				}
				// Even after the registry processes more updates and the
				// detach, the canceled stream must stay empty.
				reg.Sync()
				if d, ok := st.Pop(); ok {
					errs <- fmt.Errorf("churner %d: delta (seq %d) poppable after Cancel+Sync", c, d.Seq)
					return
				}
				if err := st.Err(); err != want {
					errs <- fmt.Errorf("churner %d: Err after Cancel = %v, want %v", c, err, want)
					return
				}
			}
		}(c)
	}

	// Checkpointer: races shard checkpoints against both phases.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				if _, err := eng.Checkpoint(); err != nil {
					errs <- fmt.Errorf("checkpoint: %w", err)
					return
				}
			}
		}
	}()

	// Phase 1 — the storm: chronological, batched so the per-shard groups
	// interleave at the registry, racing the churners and checkpointer.
	for i := 0; i < len(storm); i += 8 {
		end := i + 8
		if end > len(storm) {
			end = len(storm)
		}
		if _, err := eng.ApplyBatch(storm[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2 — deterministic eviction. One fresh object oscillates
	// between r=10 (inside all three slow radii) and r=40 (outside all),
	// one Synced update per leg; every leg flips every slow consumer's
	// membership, so their queues must overflow within a handful of legs.
	// The churners and checkpointer are still racing.
	evicted := func() bool {
		for _, st := range slow {
			select {
			case <-st.Done():
			default:
				return false
			}
		}
		return true
	}
	zig := mod.OID(nObjects + 1)
	tau += 1
	if err := eng.Apply(mod.New(zig, tau, geom.Of(10, 0), geom.Of(10, 0))); err != nil {
		t.Fatal(err)
	}
	vx := 10.0
	for leg := 0; leg < 60 && !evicted(); leg++ {
		tau += 3
		vx = -vx
		if err := eng.Apply(mod.ChDir(zig, tau, geom.Of(vx, 0))); err != nil {
			t.Fatal(err)
		}
		reg.Sync()
	}
	if !evicted() {
		t.Fatal("slow consumers not evicted after 60 membership flips")
	}
	for i, st := range slow {
		if err := st.Err(); err != sub.ErrSlowConsumer {
			t.Errorf("slow consumer %d: Err = %v, want ErrSlowConsumer", i, err)
		}
	}

	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All churner streams canceled, all slow consumers evicted: after a
	// sync the registry must be empty again.
	reg.Sync()
	if subs, streams := reg.Counts(); subs != 0 || streams != 0 {
		t.Errorf("counts after churn = (%d, %d), want (0, 0)", subs, streams)
	}
}
