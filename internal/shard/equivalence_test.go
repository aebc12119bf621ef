package shard

// Sharded-vs-unsharded equivalence: on seeded workloads (bulk-loaded
// populations plus concurrently-replayed update streams), the answers
// of the fan-out KNN and Within coordinators must be byte-identical to
// a single sweep over the whole database. Run under -race in CI, these
// tests double as the concurrency check on the fan-out path.

import (
	"testing"

	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/trajectory"
	"repro/internal/workload"
)

func evalDist(q trajectory.Trajectory) gdist.GDistance { return gdist.EuclideanSq{Query: q} }

// buildWorkload returns two identical databases (bulk population plus a
// chronological update stream applied to both) and the stream itself:
// one stays unsharded, the other is handed to the engine under test.
func buildWorkload(t *testing.T, seed int64, n, updates int) (*mod.DB, *mod.DB, []mod.Update) {
	t.Helper()
	mk := func() *mod.DB {
		db, err := workload.ConvergingMovers(workload.Config{Seed: seed, N: n})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	base := mk()
	us, err := workload.Stream(base, workload.StreamConfig{
		Seed: seed + 1, Count: updates, From: 1, To: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	single := mk()
	if err := single.ApplyAll(us...); err != nil {
		t.Fatal(err)
	}
	return mk(), single, us
}

func TestKNNShardedEquivalence(t *testing.T) {
	forShard, single, us := buildWorkload(t, 21, 150, 200)
	q := workload.QueryTrajectory(workload.Config{}, 5)
	f := evalDist(q)
	for _, p := range []int{1, 2, 3, 4, 8} {
		eng, err := FromDB(forShard.Snapshot(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		// Replay the stream concurrently, one goroutine per shard.
		if err := workload.ReplayConcurrent(us, p, eng.ShardOf, eng.Apply); err != nil {
			t.Fatalf("P=%d: concurrent replay: %v", p, err)
		}
		if got, want := eng.Tau(), single.Tau(); got != want {
			t.Fatalf("P=%d: Tau = %g, want %g", p, got, want)
		}
		if got, want := eng.Len(), single.Len(); got != want {
			t.Fatalf("P=%d: Len = %d, want %d", p, got, want)
		}
		for _, k := range []int{1, 3, 8} {
			want := query.NewKNN(k)
			if _, err := query.RunPast(single, f, 0, 25, want); err != nil {
				t.Fatal(err)
			}
			got, _, tau, err := eng.KNN(f, k, 0, 25)
			if err != nil {
				t.Fatalf("P=%d k=%d: %v", p, k, err)
			}
			if tau != single.Tau() {
				t.Fatalf("P=%d k=%d: snapshot tau = %g, want %g", p, k, tau, single.Tau())
			}
			if g, w := got.String(), want.Answer().String(); g != w {
				t.Fatalf("P=%d k=%d: sharded answer differs\n got: %s\nwant: %s", p, k, g, w)
			}
		}
	}
}

func TestWithinShardedEquivalence(t *testing.T) {
	forShard, single, us := buildWorkload(t, 33, 120, 150)
	q := workload.QueryTrajectory(workload.Config{}, 6)
	f := evalDist(q)
	for _, p := range []int{2, 4, 7} {
		eng, err := FromDB(forShard.Snapshot(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.ReplayConcurrent(us, p, eng.ShardOf, eng.Apply); err != nil {
			t.Fatalf("P=%d: concurrent replay: %v", p, err)
		}
		for _, r := range []float64{100, 400, 900} {
			c := r * r
			want := query.NewWithin(c)
			if _, err := query.RunPast(single, f, 0, 25, want); err != nil {
				t.Fatal(err)
			}
			got, _, _, err := eng.Within(f, c, 0, 25)
			if err != nil {
				t.Fatalf("P=%d r=%g: %v", p, r, err)
			}
			if g, w := got.String(), want.Answer().String(); g != w {
				t.Fatalf("P=%d r=%g: sharded answer differs\n got: %s\nwant: %s", p, r, g, w)
			}
		}
	}
}

// TestKNNEquivalencePointQuery mirrors the server's /query/knn shape
// (fixed query point) on the bulk-loaded population alone.
func TestKNNEquivalencePointQuery(t *testing.T) {
	db, err := workload.RandomMovers(workload.Config{Seed: 9, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	f := gdist.PointSq{Point: []float64{25, -40}}
	want := query.NewKNN(5)
	if _, err := query.RunPast(db, f, 0, 40, want); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		eng, err := FromDB(db.Snapshot(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := eng.KNN(f, 5, 0, 40)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.String(), want.Answer().String(); g != w {
			t.Fatalf("P=%d: sharded answer differs\n got: %s\nwant: %s", p, g, w)
		}
	}
}
