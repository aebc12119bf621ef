package moq

// Benchmark harness: one benchmark family per experiment in DESIGN.md's
// per-experiment index. The paper is a theory paper with no measurement
// tables; the artifacts reproduced here are its complexity claims
// (Theorems 4, 5, 10, Corollary 6, Proposition 1, Lemma 9) and the
// baseline comparison of Section 5. cmd/modbench runs the same
// experiments with model fitting and prints the tables recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/eventq"
	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/piecewise"
	"repro/internal/query"
	"repro/internal/workload"
)

// e1Sizes are the population sizes swept by the scaling benchmarks.
var e1Sizes = []int{1000, 2000, 4000}

// mustMovers builds a converging population (high intersection density).
func mustMovers(b *testing.B, n int) *mod.DB {
	b.Helper()
	db, err := workload.ConvergingMovers(workload.Config{Seed: 1, N: n})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// fullOrder hides an evaluator's query.Bound, so RunPast sweeps every
// curve, as Theorem 4 counts them, instead of the bounded subset a past
// k-NN by itself reaches (cmd/modbench's e1 does the same).
type fullOrder struct{ query.Evaluator }

// BenchmarkE1PastKNN measures Theorem 4's regime: a past 1-NN query over
// a fixed window, swept over the full order; the reported "events"
// metric is the paper's m.
func BenchmarkE1PastKNN(b *testing.B) {
	for _, n := range e1Sizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			db := mustMovers(b, n)
			q := workload.QueryTrajectory(workload.Config{}, 2)
			f := gdist.EuclideanSq{Query: q}
			b.ResetTimer()
			var events int
			for i := 0; i < b.N; i++ {
				st, err := query.RunPast(db, f, 0, 50, fullOrder{query.NewKNN(1)})
				if err != nil {
					b.Fatal(err)
				}
				events = st.Events
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// BenchmarkE2Init measures Theorem 5(1): building the initial precedence
// relation (curve construction + O(N log N) insertion sort).
func BenchmarkE2Init(b *testing.B) {
	for _, n := range e1Sizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			db := mustMovers(b, n)
			trajs := db.Trajectories()
			q := workload.QueryTrajectory(workload.Config{}, 2)
			f := gdist.EuclideanSq{Query: q}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := query.NewEngine(query.EngineConfig{F: f, Lo: 0, Hi: 1000})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Seed(trajs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Update measures Theorem 5(2)/Corollary 6: the per-update
// maintenance cost of a continuing query under a regular update stream.
func BenchmarkE3Update(b *testing.B) {
	for _, n := range e1Sizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			db := mustMovers(b, n)
			q := workload.QueryTrajectory(workload.Config{}, 2)
			f := gdist.EuclideanSq{Query: q}
			// Back-to-back updates isolate the pure per-update cost
			// (Corollary 6's O(log N)); intervening sweep events belong
			// to the m log N term, measured separately by modbench e3.
			to := 1 + float64(b.N+1)*1e-6
			updates, err := workload.Stream(db, workload.StreamConfig{
				Seed: 3, Count: b.N + 1, From: 1, To: to,
			})
			if err != nil {
				b.Fatal(err)
			}
			knn := query.NewKNN(1)
			sess, err := query.NewSession(db, f, 0, to+10, knn)
			if err != nil {
				b.Fatal(err)
			}
			// Reach steady state before timing: the advance to the
			// first update processes the backlog of initial events.
			if err := sess.AdvanceTo(0.999); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Apply(updates[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4QueryChdir measures Theorem 10: a chdir on the query
// trajectory replaces every curve without re-sorting; cost O(N).
func BenchmarkE4QueryChdir(b *testing.B) {
	for _, n := range e1Sizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			db := mustMovers(b, n)
			q := workload.QueryTrajectory(workload.Config{}, 2)
			sess, _, err := NewKNNSession(db, gdist.EuclideanSq{Query: q}, 1, 0, 1e6)
			if err != nil {
				b.Fatal(err)
			}
			if err := sess.AdvanceTo(1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				turned, err := q.ChDir(1, V(float64(i%7-3), float64(i%5-2)))
				if err != nil {
					b.Fatal(err)
				}
				if err := ReplaceQueryDistance(sess, gdist.EuclideanSq{Query: turned}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Baselines compares the sweep against the Proposition 1
// quantifier-elimination baseline on the same past 1-NN query (small N:
// the baseline is O(N^2) root finding).
func BenchmarkE5Baselines(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		db := mustMovers(b, n)
		q := workload.QueryTrajectory(workload.Config{}, 2)
		f := gdist.EuclideanSq{Query: q}
		b.Run(fmt.Sprintf("sweep/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := RunPastKNN(db, f, 1, 0, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("qe-naive/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.AllPairsKNN(db, q, 1, 0, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Queue is the Lemma 9 ablation: indexed binary heap vs the
// paper's height-biased leftist tree as the event queue of a full past
// query.
func BenchmarkE6Queue(b *testing.B) {
	db := mustMovers(b, 4000)
	q := workload.QueryTrajectory(workload.Config{}, 2)
	f := gdist.EuclideanSq{Query: q}
	run := func(b *testing.B, mk func() eventq.Queue) {
		for i := 0; i < b.N; i++ {
			knn := query.NewKNN(1)
			e, err := query.NewEngine(query.EngineConfig{F: f, Lo: 0, Hi: 50, Queue: mk()})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.AddEvaluator(knn); err != nil {
				b.Fatal(err)
			}
			if err := e.Seed(db.Trajectories()); err != nil {
				b.Fatal(err)
			}
			if err := e.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("heap", func(b *testing.B) { run(b, func() eventq.Queue { return eventq.NewHeap() }) })
	b.Run("leftist", func(b *testing.B) { run(b, func() eventq.Queue { return eventq.NewLeftist() }) })
}

// BenchmarkE7SR01 measures the Song–Roussopoulos baseline's sampling cost
// at several periods (its accuracy is measured in cmd/modbench e7 and
// TestSR01MissesQuickExchange).
func BenchmarkE7SR01(b *testing.B) {
	db, err := workload.StationaryField(5, 10000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	q := workload.QueryTrajectory(workload.Config{}, 6)
	for _, period := range []float64{5, 1, 0.2} {
		b.Run(fmt.Sprintf("period=%g", period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := baseline.SR01KNN(db, q, baseline.SR01Config{K: 5, Period: period}, 0, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF1Intercept exercises the Figure 1 / Example 7 fastest-arrival
// distance end to end (fit + sweep).
func BenchmarkF1Intercept(b *testing.B) {
	cars, target, err := workload.Dispatch(7, 50)
	if err != nil {
		b.Fatal(err)
	}
	f := gdist.Intercept{Target: target, MaxErr: 1e-4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunPastKNN(cars, f, 1, 0, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelPastQueries runs independent past queries concurrently
// over a shared database snapshot: sweeps are single-threaded by design
// (they ARE a sweep), but distinct queries parallelize freely because
// trajectories are immutable values.
func BenchmarkParallelPastQueries(b *testing.B) {
	db := mustMovers(b, 1000)
	b.RunParallel(func(pb *testing.PB) {
		seed := int64(0)
		for pb.Next() {
			seed++
			q := workload.QueryTrajectory(workload.Config{}, seed)
			if _, _, err := RunPastKNN(db, gdist.EuclideanSq{Query: q}, 1, 0, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8Historian measures the lifetime-index access path: repeated
// short-window past queries over a long history with object churn, seeded
// either from the full population (RunPast) or from the interval index
// (query.Historian).
func BenchmarkE8Historian(b *testing.B) {
	db := churnHistory(b, 4000)
	q := workload.QueryTrajectory(workload.Config{}, 3)
	f := gdist.EuclideanSq{Query: q}
	b.Run("full-seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := float64(i%90) * 10
			knn := query.NewKNN(1)
			if _, err := query.RunPast(db, f, lo, lo+10, knn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		h, err := query.NewHistorian(db)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := float64(i%90) * 10
			if _, _, err := h.KNN(f, 1, lo, lo+10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// churnHistory builds a long recorded history where each object lives in
// a short era, so any given query window intersects only a few lifetimes.
func churnHistory(b *testing.B, n int) *mod.DB {
	b.Helper()
	db := mod.NewDB(2, -1)
	for i := 1; i <= n; i++ {
		start := float64(i-1) * (900.0 / float64(n))
		tr := Linear(start, V(float64(i%7)-3, float64(i%5)-2),
			V(float64((i*37)%500)-250, float64((i*73)%500)-250))
		end := start + 30
		term, err := tr.Terminate(end)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Load(mod.OID(i), term); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkE9Envelope compares the sweep's 1-NN against the direct
// divide-and-conquer lower envelope (Example 6's identity): the envelope
// is competitive one-shot but supports no updates — the sweep's event
// queue is what buys incrementality.
func BenchmarkE9Envelope(b *testing.B) {
	db := mustMovers(b, 1000)
	q := workload.QueryTrajectory(workload.Config{}, 2)
	f := gdist.EuclideanSq{Query: q}
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := RunPastKNN(db, f, 1, 0, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("envelope", func(b *testing.B) {
		var curves []piecewise.Labeled
		for o, tr := range db.Trajectories() {
			cf, err := f.Curve(tr, 0, 50)
			if err != nil {
				b.Fatal(err)
			}
			curves = append(curves, piecewise.Labeled{ID: uint64(o), F: cf})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := piecewise.LowerEnvelope(curves, 0, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}
