package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

func seededEngine(t *testing.T, n, p int) (*Engine, *mod.DB) {
	t.Helper()
	db, err := workload.ConvergingMovers(workload.Config{Seed: 11, N: n})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := FromDB(db, Config{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	return eng, db
}

func TestShardOfRouting(t *testing.T) {
	eng, _ := seededEngine(t, 50, 4)
	counts := make([]int, 4)
	for o := mod.OID(1); o <= 50; o++ {
		i := eng.ShardOf(o)
		if i < 0 || i >= 4 {
			t.Fatalf("ShardOf(%s) = %d outside [0,4)", o, i)
		}
		if j := eng.ShardOf(o); j != i {
			t.Fatalf("ShardOf(%s) unstable: %d then %d", o, i, j)
		}
		counts[i]++
	}
	// The hash must spread dense sequential OIDs: no shard may be empty
	// or hold everything on this population.
	for i, c := range counts {
		if c == 0 || c == 50 {
			t.Fatalf("degenerate partition: shard %d holds %d of 50", i, c)
		}
	}
}

func TestPartitionDisjointAndComplete(t *testing.T) {
	eng, db := seededEngine(t, 40, 3)
	if got, want := eng.Len(), db.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	seen := map[mod.OID]int{}
	for i := 0; i < eng.NumShards(); i++ {
		for _, o := range eng.Shard(i).Objects() {
			if prev, dup := seen[o]; dup {
				t.Fatalf("%s in shards %d and %d", o, prev, i)
			}
			seen[o] = i
			if want := eng.ShardOf(o); want != i {
				t.Fatalf("%s stored in shard %d but routes to %d", o, i, want)
			}
		}
	}
	if len(seen) != db.Len() {
		t.Fatalf("partition covers %d objects, want %d", len(seen), db.Len())
	}
}

func TestApplyRoutesToOwningShard(t *testing.T) {
	eng, err := New(Config{Shards: 4, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	const o = mod.OID(77)
	if err := eng.Apply(mod.New(o, 0, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	owner := eng.ShardOf(o)
	for i := 0; i < eng.NumShards(); i++ {
		if got, want := eng.Shard(i).Contains(o), i == owner; got != want {
			t.Fatalf("shard %d Contains(%s) = %v, want %v", i, o, got, want)
		}
	}
	if _, err := eng.Traj(o); err != nil {
		t.Fatalf("engine does not hold the applied object: %v", err)
	}
	// Chronology is enforced by the owning shard.
	err = eng.Apply(mod.ChDir(o, -5, geom.Of(0, 1)))
	if !errors.Is(err, mod.ErrChronology) {
		t.Fatalf("stale update error = %v, want ErrChronology", err)
	}
	// Unknown objects fail on their (empty) shard.
	err = eng.Apply(mod.ChDir(999, 1, geom.Of(0, 1)))
	if !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("unknown object error = %v, want ErrNotFound", err)
	}
}

func TestAggregatesComposePerShardState(t *testing.T) {
	eng, db := seededEngine(t, 30, 4)
	if got, want := eng.Tau(), db.Tau(); got != want {
		t.Fatalf("Tau = %g, want %g", got, want)
	}
	objs := eng.Snapshot().Objects()
	if got, want := len(objs), db.Len(); got != want {
		t.Fatalf("Objects count = %d, want %d", got, want)
	}
	for i, o := range objs {
		if want := db.Objects()[i]; o != want {
			t.Fatalf("Objects[%d] = %s, want %s", i, o, want)
		}
	}
	// An update advances the aggregate tau past every shard's.
	if err := eng.Apply(mod.ChDir(objs[0], eng.Tau()+5, geom.Of(1, 1))); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Tau(), db.Tau()+5; got != want {
		t.Fatalf("Tau after update = %g, want %g", got, want)
	}
}

// TestSnapshotMatchesUnsharded: partitioning then merging must
// reconstruct the exact unsharded state, byte-for-byte in the stable
// snapshot format (same objects, same tau, same chronological log).
func TestSnapshotMatchesUnsharded(t *testing.T) {
	db := mod.NewDB(2, -1)
	var us []mod.Update
	for i := 1; i <= 20; i++ {
		us = append(us, mod.New(mod.OID(i), float64(i), geom.Of(1, 0), geom.Of(float64(i), 0)))
	}
	us = append(us,
		mod.ChDir(3, 30, geom.Of(0, 1)),
		mod.Terminate(7, 31),
		mod.ChDir(12, 32, geom.Of(-1, 0)),
	)
	if err := db.ApplyAll(us...); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 5} {
		eng, err := FromDB(db.Snapshot(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := db.SaveBinary(&want); err != nil {
			t.Fatal(err)
		}
		if err := eng.Snapshot().SaveBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("P=%d: merged snapshot differs from unsharded original", p)
		}
	}
}

func TestSingleAdoptsDB(t *testing.T) {
	db := mod.NewDB(2, -1)
	eng := Single(db)
	if eng.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", eng.NumShards())
	}
	if err := eng.Apply(mod.New(1, 0, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	// No copy: the update is visible through the adopted DB.
	if !db.Contains(1) {
		t.Fatal("update through engine not visible in adopted DB")
	}
}

func TestLoadRoutes(t *testing.T) {
	eng, err := New(Config{Shards: 3, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	tr := trajectory.Linear(0, geom.Of(1, 1), geom.Of(0, 0))
	if err := eng.Load(5, tr); err != nil {
		t.Fatal(err)
	}
	if !eng.Shard(eng.ShardOf(5)).Contains(5) {
		t.Fatal("loaded object not in its shard")
	}
	got, err := eng.Traj(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != tr.String() {
		t.Fatalf("Traj = %s, want %s", got, tr)
	}
}

func TestRunPastFanOutCollectsEveryShard(t *testing.T) {
	eng, _ := seededEngine(t, 60, 4)
	q := workload.QueryTrajectory(workload.Config{}, 2)
	evs, st, _, err := eng.RunPast(evalDist(q), 0, 20, func(int) query.Evaluator {
		return query.NewWithin(500 * 500)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("%d evaluators, want 4", len(evs))
	}
	total := 0
	for _, ev := range evs {
		total += len(ev.(*query.Within).Answer().Objects())
	}
	if total == 0 {
		t.Fatal("empty fan-out answer")
	}
	if st.Inserts == 0 {
		t.Fatal("stats not aggregated")
	}
}

func TestFanOutSurfacesErrors(t *testing.T) {
	eng, _ := seededEngine(t, 20, 4)
	q := workload.QueryTrajectory(workload.Config{}, 2)
	// Inverted window: every shard's sweep construction fails.
	if _, _, _, err := eng.KNN(evalDist(q), 1, 10, 5); err == nil {
		t.Fatal("inverted window KNN did not error")
	}
	if _, _, _, err := eng.Within(evalDist(q), 1, 10, 5); err == nil {
		t.Fatal("inverted window Within did not error")
	}
}

func TestConfigNormalization(t *testing.T) {
	if _, err := New(Config{Shards: 2}); err == nil {
		t.Fatal("New without Dim did not error")
	}
	eng, err := New(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumShards() != 1 {
		t.Fatalf("default NumShards = %d, want 1", eng.NumShards())
	}
}

// TestBatchIngestAndShardAdoption covers the write paths the query tests
// never take: ApplyAll and ApplyBatch route by OID and report how far a
// rejected group got, listeners see every applied update, and
// FromShards re-adopts a partition only if every object sits in the
// shard its OID hashes to.
func TestBatchIngestAndShardAdoption(t *testing.T) {
	for _, p := range []int{1, 3} {
		eng, err := New(Config{Shards: p, Dim: 2, Tau0: -1})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Dim() != 2 {
			t.Fatalf("Dim = %d", eng.Dim())
		}
		seen := 0
		var mu sync.Mutex
		eng.OnUpdate(func(mod.Update) { mu.Lock(); seen++; mu.Unlock() })

		var us []mod.Update
		for i := 1; i <= 12; i++ {
			us = append(us, mod.New(mod.OID(i), float64(i), geom.Of(1, 0), geom.Of(float64(i), 0)))
		}
		if err := eng.ApplyAll(us[:4]...); err != nil {
			t.Fatal(err)
		}
		if n, err := eng.ApplyBatch(us[4:]); n != 8 || err != nil {
			t.Fatalf("P=%d: ApplyBatch = %d, %v; want 8 applied", p, n, err)
		}
		if n, err := eng.ApplyBatch(nil); n != 0 || err != nil {
			t.Fatalf("empty batch = %d, %v", n, err)
		}
		// A stale update is rejected; ApplyAll names it, ApplyBatch counts
		// what its shard applied before it.
		if err := eng.ApplyAll(mod.ChDir(1, 0.5, geom.Of(0, 1))); err == nil {
			t.Fatalf("P=%d: stale ApplyAll accepted", p)
		}
		if n, err := eng.ApplyBatch([]mod.Update{mod.ChDir(1, 20, geom.Of(0, 1)), mod.ChDir(1, 19, geom.Of(1, 1))}); n != 1 || err == nil {
			t.Fatalf("P=%d: ApplyBatch with a stale tail = %d, %v; want 1 applied and an error", p, n, err)
		}
		if eng.Len() != 12 || seen != 13 {
			t.Fatalf("P=%d: %d objects, listener saw %d updates; want 12 and 13", p, eng.Len(), seen)
		}

		parts := make([]*mod.DB, p)
		for i := range parts {
			parts[i] = eng.Shard(i)
		}
		back, err := FromShards(parts)
		if err != nil {
			t.Fatalf("P=%d: FromShards: %v", p, err)
		}
		if back.NumShards() != p || back.Len() != 12 {
			t.Fatalf("P=%d: adopted %d shards, %d objects", p, back.NumShards(), back.Len())
		}
		if p > 1 {
			parts[0], parts[1] = parts[1], parts[0]
			if _, err := FromShards(parts); err == nil {
				t.Fatal("FromShards accepted objects filed under the wrong shard")
			}
		}
	}
	if _, err := FromShards(nil); err == nil {
		t.Fatal("FromShards accepted no shards")
	}
	if _, err := FromShards([]*mod.DB{mod.NewDB(2, 0), mod.NewDB(3, 0)}); err == nil {
		t.Fatal("FromShards accepted shards of different dimensions")
	}
}

// TestKNNScanErrorSurfaces: an object the sweep could not address is
// refused when it would enter a shard, so no shard's scan ever meets
// one and the fan-out keeps answering as before.
func TestKNNScanErrorSurfaces(t *testing.T) {
	eng, _ := seededEngine(t, 20, 4)
	q := workload.QueryTrajectory(workload.Config{}, 2)
	before, _, _, err := eng.KNN(evalDist(q), 2, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(mod.MaxOID+1, trajectory.Linear(0, geom.Of(1, 0), geom.Of(0, 0))); !errors.Is(err, mod.ErrBadOperation) {
		t.Fatalf("Load of an OID above mod.MaxOID: %v, want ErrBadOperation", err)
	}
	if err := eng.Apply(mod.New(mod.MaxOID+1, eng.Tau()+1, geom.Of(1, 0), geom.Of(0, 0))); !errors.Is(err, mod.ErrBadOperation) {
		t.Fatalf("Apply of an OID above mod.MaxOID: %v, want ErrBadOperation", err)
	}
	after, _, _, err := eng.KNN(evalDist(q), 2, 0, 10)
	if err != nil {
		t.Fatalf("KNN after the refusals: %v", err)
	}
	if fmt.Sprint(after.Run()) != fmt.Sprint(before.Run()) {
		t.Fatalf("KNN answer changed after the refusals: %v, want %v", after.Objects(), before.Objects())
	}
}
