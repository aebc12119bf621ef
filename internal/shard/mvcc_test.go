package shard

// MVCC equivalence: fan-out queries now run against lock-free epoch
// snapshots (mod.EpochSnapshot) instead of holding every shard's read
// lock for the duration of the sweep. These tests pin the two things
// that must survive that change: at quiescence the answers are
// byte-identical to a sweep over the locked merged Snapshot, and under
// concurrent churn every answer is computed over ONE consistent epoch
// per shard (tau monotone, no errors, class/tau pairing intact).
// Run under -race in CI.

import (
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

func TestMVCCEquivalentToLockedSnapshot(t *testing.T) {
	forShard, _, us := buildWorkload(t, 77, 120, 160)
	q := workload.QueryTrajectory(workload.Config{}, 3)
	f := evalDist(q)
	for _, p := range []int{1, 4} {
		eng, err := FromDB(forShard.Snapshot(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.ReplayConcurrent(us, p, eng.ShardOf, eng.Apply); err != nil {
			t.Fatal(err)
		}
		// Locked reference: one sweep over the merged copy Snapshot()
		// builds under the shard locks.
		ref := eng.Snapshot()
		for _, k := range []int{1, 4} {
			want := query.NewKNN(k)
			if _, err := query.RunPast(ref, f, 0, 20, want); err != nil {
				t.Fatal(err)
			}
			got, _, tau, err := eng.KNN(f, k, 0, 20)
			if err != nil {
				t.Fatal(err)
			}
			if tau != ref.Tau() {
				t.Fatalf("P=%d k=%d: snapshot tau %g, want %g", p, k, tau, ref.Tau())
			}
			if g, w := got.String(), want.Answer().String(); g != w {
				t.Fatalf("P=%d k=%d: epoch-snapshot answer differs from locked answer\n got: %s\nwant: %s", p, k, g, w)
			}
		}
		want := query.NewWithin(9)
		if _, err := query.RunPast(ref, f, 0, 20, want); err != nil {
			t.Fatal(err)
		}
		got, _, _, err := eng.Within(f, 9, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got.String(), want.Answer().String(); g != w {
			t.Fatalf("P=%d within: epoch-snapshot answer differs\n got: %s\nwant: %s", p, g, w)
		}
	}
}

// TestMVCCQueriesDuringChurn runs past queries continuously while the
// update stream replays: no query may error, observed taus must be
// monotone non-decreasing per reader, and once the stream quiesces the
// live answer must equal the locked reference. This is the lock-free
// read path doing its job: queries never block on (or tear under) the
// writer.
func TestMVCCQueriesDuringChurn(t *testing.T) {
	forShard, single, us := buildWorkload(t, 99, 100, 300)
	q := workload.QueryTrajectory(workload.Config{}, 2)
	f := evalDist(q)
	const p = 4
	eng, err := FromDB(forShard.Snapshot(), Config{Shards: p})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := eng.Tau()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, tau, err := eng.KNN(f, 2, 0, 20)
				if err != nil {
					t.Errorf("query during churn: %v", err)
					return
				}
				if tau < last {
					t.Errorf("tau went backwards during churn: %g after %g", tau, last)
					return
				}
				last = tau
			}
		}()
	}
	if err := workload.ReplayConcurrent(us, p, eng.ShardOf, eng.Apply); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	want := query.NewKNN(2)
	if _, err := query.RunPast(single, f, 0, 20, want); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := eng.KNN(f, 2, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.String(), want.Answer().String(); g != w {
		t.Fatalf("post-churn answer differs from unsharded reference\n got: %s\nwant: %s", g, w)
	}
}
