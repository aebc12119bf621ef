package query

// What a possibly-within query through the index allocates, and that
// its lock lets queries run side by side.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/workload"
)

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

// TestBeadIndexPossiblyWithinAllocatesWithItsAnswer: a query allocates
// its answer — three arrays, sized by the candidates — and a bounded
// amount of its own (the query box, the cap query, one interval list
// handed from candidate to candidate), and nothing per object, per
// candidate, per window or per kernel call: its candidate list is
// pooled. The two chain queries differ sixfold in candidates and in
// answer size, the third is answered by the cap pass, and all sit under
// one allocation ceiling, with bytes within what the answer's arrays
// take per candidate plus a constant.
func TestBeadIndexPossiblyWithinAllocatesWithItsAnswer(t *testing.T) {
	if !poolKeeps() {
		t.Skip("the candidate list is pooled, and this build's sync.Pool drops items (-race drops a quarter of them)")
	}
	db := uncertainPopulation(t, 3000)
	ix := NewBeadIndex(db)
	snap := db.EpochSnapshot()
	const (
		ceiling      = 16   // measured 13, 13 and 10
		bytesPerCand = 40   // the answer's OID, offset and interval take 32
		bytesFixed   = 4096 // measured 7,456, 49,568 and 41,264 B for 212, 1,392 and 1,238 candidates
	)
	for _, w := range []struct {
		radius, lo, hi float64
		caps           bool // every candidate is cap-only
	}{
		{80, 10, 30, false},
		{500, 10, 30, false},
		{300, 45, 55, true},
	} {
		var ans *AnswerSet
		var st BeadStats
		query := func() {
			var err error
			if ans, st, err = ix.PossiblyWithin(snap, geom.Of(100, -50), w.radius, w.lo, w.hi, 15); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, query)
		bytes := bytesPerRun(20, query) // one pool miss adds a twentieth of a list
		answer := len(ans.Objects())
		measured := st.Kernel >= st.Candidates/2 // the kernel answers the chain queries
		if w.caps {
			measured = st.Closed >= st.Candidates/2
		}
		if answer < 10 || !measured {
			t.Fatalf("%+v: answer of %d objects, stats %+v: the query is too small to measure", w, answer, st)
		}
		if allocs > ceiling {
			t.Errorf("%+v: %v allocations for an answer of %d objects (%d candidates, %d kernel calls), ceiling %v",
				w, allocs, answer, st.Candidates, st.Kernel, ceiling)
		}
		if limit := uint64(bytesPerCand*st.Candidates + bytesFixed); bytes > limit {
			t.Errorf("%+v: %d bytes for %d candidates, ceiling %d", w, bytes, st.Candidates, limit)
		}
		t.Logf("%+v: %v allocations, %d bytes, answer %d, stats %+v", w, allocs, bytes, answer, st)
	}
}

// poolKeeps reports whether a sync.Pool hands back what was just put
// in it, as it does outside -race builds.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		v := new(int)
		p.Put(v)
		if p.Get() != v {
			return false
		}
	}
	return true
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestBeadIndexConcurrentQueriesAndUpdates runs possibly-within and
// TrackOf from several goroutines while updates keep invalidating the
// index; under -race it checks the read-lock path, the upgrade to the
// write lock for a sync, and kernel walks over tracks a sync is
// extending, against each other. Every answer
// must be the scan's on the same snapshot.
func TestBeadIndexConcurrentQueriesAndUpdates(t *testing.T) {
	db := uncertainPopulation(t, 300)
	ix := NewBeadIndex(db)
	objs := db.Objects()
	var queriers, updater sync.WaitGroup
	answered := make(chan struct{})
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			for i := 0; i < 40; i++ {
				snap := db.EpochSnapshot()
				q := geom.Of(float64(100*g), float64(-50*i%400))
				got, _, err := ix.PossiblyWithin(snap, q, 300, 5, 45, 15)
				if err != nil {
					t.Errorf("index: %v", err)
					return
				}
				want, err := PossiblyWithin(snap, q, 300, 5, 45, 15)
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if diff := answersEqual(want, got); diff != "" {
					t.Errorf("goroutine %d query %d: index diverges from scan: %s", g, i, diff)
					return
				}
				o := objs[(g*31+i)%len(objs)]
				tr, err := ix.TrackOf(snap, o, 15)
				ref, rerr := TrackOf(snap, o, 15)
				if err != nil || rerr != nil || len(tr.Samples()) != len(ref.Samples()) {
					t.Errorf("TrackOf(%v): %v / %v", o, err, rerr)
					return
				}
				select {
				case answered <- struct{}{}:
				default: // the updater is busy applying one
				}
			}
		}(g)
	}
	// One update for every other answered query, until the last: some
	// queries find the index in step, some must sync it first. Direction
	// changes and terminations extend cached tracks, new speed bounds
	// retire and rebuild them, so both branches of a sync run against
	// concurrent readers of the tracks they replace.
	updater.Add(1)
	go func() {
		defer updater.Done()
		tau := db.Tau()
		dead := make(map[mod.OID]bool)
		i := 0
		for range answered {
			if i++; i%2 == 1 {
				continue
			}
			tau += 0.01
			o := objs[(i*7)%len(objs)]
			u := mod.ChDir(o, tau, geom.Of(float64(i%5), 1))
			switch {
			case dead[o] || i%6 == 0:
				u = mod.Bound(o, tau, float64(10+i%7))
			case i%10 == 0:
				u, dead[o] = mod.Terminate(o, tau), true
			}
			if err := db.Apply(u); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	queriers.Wait()
	close(answered)
	updater.Wait()
}

// TestBeadIndexTrackOfKeepsToItsSnapshot: a sync that extends an
// object's entry rewrites it in place, so TrackOf must take the track
// out of the entry under the index lock. Readers hold a snapshot across
// several lookups while a writer turns the same object and syncs the
// index to each newer snapshot; every track returned must have the
// samples the scan builds for the reader's own snapshot. Under -race the
// detector also sees any read of the entry outside the lock.
func TestBeadIndexTrackOfKeepsToItsSnapshot(t *testing.T) {
	db, ix := historyDB(t, 16)
	var writer, readers sync.WaitGroup
	looked := make(chan struct{})
	// One turn of object 1, and a sync to the snapshot holding it, for
	// every lookup a reader reports: the readers' snapshots fall behind.
	writer.Add(1)
	go func() {
		defer writer.Done()
		tau := db.Tau()
		for range looked {
			tau++
			if err := db.Apply(mod.ChDir(1, tau, geom.Of(float64(int(tau)%3), 1))); err != nil {
				t.Error(err)
				return
			}
			if _, err := ix.TrackOf(db.EpochSnapshot(), 1, 2); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				snap := db.EpochSnapshot()
				ref, err := TrackOf(snap, 1, 2)
				if err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < 3; k++ {
					tr, err := ix.TrackOf(snap, 1, 2)
					if err != nil {
						t.Error(err)
						return
					}
					if got, want := tr.Samples(), ref.Samples(); len(got) != len(want) || got[len(got)-1].T != want[len(want)-1].T {
						t.Errorf("TrackOf at epoch %d returned %d samples, the scan %d: the track of another snapshot",
							snap.Epoch(), len(got), len(want))
						return
					}
					select {
					case looked <- struct{}{}:
					default: // the writer is busy with the last one
					}
				}
			}
		}()
	}
	readers.Wait()
	close(looked)
	writer.Wait()
}

// BenchmarkBeadIndexPossiblyWithin is one possibly-within query on one
// shard of 5000 movers: candidates from the box tree and the cap list,
// the kernel walk over each, and the answer set. The population's last
// samples fall in [20, 40]: over [10, 30] every candidate has chain
// beads in the window, and over [45, 55] — after the last samples, as
// most of uncertain-read's windows are — every candidate is cap-only.
func BenchmarkBeadIndexPossiblyWithin(b *testing.B) {
	db := uncertainPopulation(b, 5000)
	ix := NewBeadIndex(db)
	snap := db.EpochSnapshot()
	q := geom.Of(100, -50)
	for _, w := range []struct {
		name           string
		radius, lo, hi float64
	}{
		{"chains", 300, 10, 30},
		{"caps", 100, 45, 55},
	} {
		b.Run(w.name, func(b *testing.B) {
			if _, _, err := ix.PossiblyWithin(snap, q, w.radius, w.lo, w.hi, 15); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.PossiblyWithin(snap, q, w.radius, w.lo, w.hi, 15); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
