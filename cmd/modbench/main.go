// Command modbench runs the reproduction experiments of EXPERIMENTS.md
// and prints their tables: complexity-shape measurements for Theorems 4,
// 5 and 10, Corollary 6 and Lemma 9 (E1–E4, E6), the Proposition 1
// baseline comparison (E5) and the Song–Roussopoulos accuracy comparison
// of Section 5 (E7). E8 and E9 are testing.B benchmarks in bench_test.go.
// The engine experiments that used to be e10–e15 are measured end to
// end by benchmark/ (past-sweep at -shards 2, ingest-durable,
// uncertain-read and live-mix); what they claimed about work, not time,
// is held by count tests in internal/sub and internal/query.
//
// Usage:
//
//	modbench [-exp all|e1,e3] [-quick] [-seed N]
//	modbench -drive http://HOST:PORT [-acked acked.jsonl]      (crash smoke)
//	modbench -crashcheck http://HOST:PORT [-acked acked.jsonl]
//
// The -drive/-crashcheck modes are the two halves of the kill -9
// crash-recovery smoke test (see crash.go).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/baseline"
	"repro/internal/eventq"
	"repro/internal/gdist"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

var (
	expFlag   = flag.String("exp", "all", "comma-separated experiments (e1..e7) or 'all'")
	quickFlag = flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	seedFlag  = flag.Int64("seed", 1, "workload seed")
)

// experiments is every experiment modbench runs, in run order; -exp all
// selects them all.
var experiments = []struct {
	name string
	run  func() error
}{
	{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"e7", e7},
}

// measuredElsewhere names the experiments of EXPERIMENTS.md that modbench
// does not run, and what measures each instead.
var measuredElsewhere = map[string]string{
	"e8":  "BenchmarkE8Historian (go test -bench E8Historian .)",
	"e9":  "BenchmarkE9Envelope (go test -bench E9Envelope .)",
	"e10": "benchmark/'s past-sweep workload at -shards 2",
	"e11": "benchmark/'s ingest-durable workload (its durable.* rows)",
	"e12": "benchmark/'s ingest-durable workload",
	"e13": "benchmark/'s live-mix workload (its sub.* rows); TestRoutingIgnoresColdSubscriptions in internal/sub holds its routing claim",
	"e14": "benchmark/'s uncertain-read workload (op2, alibi); TestDifferentialAlibiVsOracle in internal/shard holds its answers",
	"e15": "benchmark/'s uncertain-read workload (op1, possibly-within); TestBroadPhaseCandidatesFollowTheQuery in internal/query holds its pruning claim",
}

// selectExperiments parses an -exp value, "all" or a comma-separated
// list of experiment names, into the set to run. A name that is not in
// experiments is an error listing the valid ones.
func selectExperiments(spec string) (map[string]bool, error) {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	if spec == "all" {
		spec = strings.Join(names, ",")
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(names, name) {
			why := fmt.Sprintf("unknown experiment %q", name)
			if where, ok := measuredElsewhere[name]; ok {
				why = name + " is not run by modbench; it is measured by " + where
			}
			return nil, fmt.Errorf("-exp: %s (valid: all, %s)", why, strings.Join(names, ", "))
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("modbench: ")
	flag.Parse()
	if *driveFlag != "" || *checkFlag != "" {
		crashMain()
		return
	}
	want, err := selectExperiments(*expFlag)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Println()
	}
}

// sizes returns the N sweep, reduced under -quick.
func sizes(full []int) []int {
	if !*quickFlag {
		return full
	}
	out := full[:0:0]
	for _, n := range full {
		if n <= full[0]*4 {
			out = append(out, n)
		}
	}
	return out
}

func table(header string, rows [][]string) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	_, _ = fmt.Fprintln(w, header)
	for _, r := range rows {
		_, _ = fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	_ = w.Flush()
}

func movers(n int) (*mod.DB, error) {
	return workload.ConvergingMovers(workload.Config{Seed: *seedFlag, N: n})
}

func queryDist() (gdist.GDistance, error) {
	q := workload.QueryTrajectory(workload.Config{}, *seedFlag+1)
	return gdist.EuclideanSq{Query: q}, nil
}

// fullOrder hides an evaluator's query.Bound, so RunPast sweeps every
// curve: what e1, which measures the sweep itself, needs now that a past
// k-NN by itself is bounded to the curves that can reach its answer.
type fullOrder struct{ query.Evaluator }

// e1 — Theorem 4: past 1-NN in O((m+N) log N), over the full order. The
// normalized column T/((m+N) log2 N) should be roughly constant across N.
func e1() error {
	fmt.Println("== E1: past query cost, Theorem 4: O((m+N) log N) ==")
	ns := sizes([]int{1000, 2000, 4000, 8000, 16000})
	f, err := queryDist()
	if err != nil {
		return err
	}
	var rows [][]string
	var xs, norm []float64
	for _, n := range ns {
		db, err := movers(n)
		if err != nil {
			return err
		}
		start := time.Now()
		st, err := query.RunPast(db, f, 0, 50, fullOrder{query.NewKNN(1)})
		if err != nil {
			return err
		}
		el := time.Since(start)
		m := st.Events
		c := el.Seconds() / (float64(m+n) * math.Log2(float64(n)))
		xs = append(xs, float64(n))
		norm = append(norm, c*1e9)
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(m), fmt.Sprintf("%.3g", el.Seconds()),
			fmt.Sprintf("%.1f", c*1e9),
		})
	}
	table("N\tm (events)\ttotal s\tns per (m+N)logN", rows)
	spread := stats.Percentile(norm, 100) / math.Max(stats.Percentile(norm, 0), 1e-12)
	fmt.Printf("normalized-cost spread max/min = %.2f (flat ⇒ matches O((m+N) log N))\n", spread)
	_ = xs
	return nil
}

// e2 — Theorem 5(1): initialization in O(N log N).
func e2() error {
	fmt.Println("== E2: future-query initialization, Theorem 5(1): O(N log N) ==")
	ns := sizes([]int{1000, 2000, 4000, 8000, 16000, 32000})
	f, err := queryDist()
	if err != nil {
		return err
	}
	var rows [][]string
	var xs, ys []float64
	for _, n := range ns {
		db, err := movers(n)
		if err != nil {
			return err
		}
		trajs := db.Trajectories()
		reps := 3
		best := math.Inf(1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			e, err := query.NewEngine(query.EngineConfig{F: f, Lo: 0, Hi: 1e6})
			if err != nil {
				return err
			}
			if err := e.Seed(trajs); err != nil {
				return err
			}
			if el := time.Since(start).Seconds(); el < best {
				best = el
			}
		}
		xs = append(xs, float64(n))
		ys = append(ys, best)
		rows = append(rows, []string{fmt.Sprint(n), fmt.Sprintf("%.4g", best*1e3)})
	}
	table("N\tinit ms", rows)
	fits, err := stats.BestFit(xs, ys, stats.ModelN, stats.ModelNLogN, stats.ModelN2)
	if err != nil {
		return err
	}
	fmt.Printf("best fit: %s (then %s)\n", fits[0], fits[1])
	p, _ := stats.GrowthExponent(xs, ys)
	fmt.Printf("log-log growth exponent: %.2f (1 ⇒ N, 2 ⇒ N^2)\n", p)
	return nil
}

// e3 — Theorem 5(2) + Corollary 6: per-update maintenance. Two regimes:
// back-to-back updates (pure O(log N) update handling) and spaced updates
// (the O(m log N) event-processing term, reported with events/update).
func e3() error {
	fmt.Println("== E3: per-update maintenance, Theorem 5(2)/Corollary 6 ==")
	ns := sizes([]int{1000, 2000, 4000, 8000, 16000})
	f, err := queryDist()
	if err != nil {
		return err
	}
	const updates = 2000
	var rows [][]string
	var xs, dense []float64
	for _, n := range ns {
		db, err := movers(n)
		if err != nil {
			return err
		}
		measure := func(spacing float64) (perUpdate float64, events float64, err error) {
			to := 1 + float64(updates+1)*spacing
			us, err := workload.Stream(db, workload.StreamConfig{
				Seed: *seedFlag + 2, Count: updates, From: 1, To: to})
			if err != nil {
				return 0, 0, err
			}
			knn := query.NewKNN(1)
			sess, err := query.NewSession(db, f, 0, to+10, knn)
			if err != nil {
				return 0, 0, err
			}
			if err := sess.AdvanceTo(0.999); err != nil {
				return 0, 0, err
			}
			ev0 := sess.E.Sweeper().Stats().Events
			start := time.Now()
			for _, u := range us {
				if err := sess.Apply(u); err != nil {
					return 0, 0, err
				}
			}
			el := time.Since(start).Seconds()
			ev1 := sess.E.Sweeper().Stats().Events
			return el / updates, float64(ev1-ev0) / updates, nil
		}
		pud, _, err := measure(1e-6)
		if err != nil {
			return err
		}
		pur, evr, err := measure(0.01)
		if err != nil {
			return err
		}
		xs = append(xs, float64(n))
		dense = append(dense, pud)
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.2f", pud*1e6),
			fmt.Sprintf("%.2f", pur*1e6),
			fmt.Sprintf("%.2f", evr),
		})
	}
	table("N\tdense µs/update\tspaced µs/update\tevents/update (spaced)", rows)
	fits, err := stats.BestFit(xs, dense, stats.ModelConst, stats.ModelLogN, stats.ModelN)
	if err != nil {
		return err
	}
	fmt.Printf("dense-regime best fit: %s (Corollary 6 predicts log N)\n", fits[0])
	return nil
}

// e4 — Theorem 10: chdir on the query trajectory in O(N).
func e4() error {
	fmt.Println("== E4: query-trajectory chdir, Theorem 10: O(N) ==")
	ns := sizes([]int{1000, 2000, 4000, 8000, 16000, 32000})
	var rows [][]string
	var xs, ys []float64
	for _, n := range ns {
		db, err := movers(n)
		if err != nil {
			return err
		}
		q := workload.QueryTrajectory(workload.Config{}, *seedFlag+1)
		knn := query.NewKNN(1)
		sess, err := query.NewSession(db, gdist.EuclideanSq{Query: q}, 0, 1e6, knn)
		if err != nil {
			return err
		}
		if err := sess.AdvanceTo(1); err != nil {
			return err
		}
		const reps = 5
		start := time.Now()
		for r := 0; r < reps; r++ {
			turned, err := q.ChDir(1, workload.QueryTrajectory(workload.Config{}, int64(r)).MustAt(1))
			if err != nil {
				return err
			}
			if err := sess.E.ReplaceGDistance(gdist.EuclideanSq{Query: turned}); err != nil {
				return err
			}
		}
		per := time.Since(start).Seconds() / reps
		xs = append(xs, float64(n))
		ys = append(ys, per)
		rows = append(rows, []string{fmt.Sprint(n), fmt.Sprintf("%.4g", per*1e3)})
	}
	table("N\tchdir-all ms", rows)
	fits, err := stats.BestFit(xs, ys, stats.ModelLogN, stats.ModelN, stats.ModelNLogN, stats.ModelN2)
	if err != nil {
		return err
	}
	fmt.Printf("best fit: %s (Theorem 10 predicts N)\n", fits[0])
	p, _ := stats.GrowthExponent(xs, ys)
	fmt.Printf("log-log growth exponent: %.2f\n", p)
	return nil
}

// e5 — Proposition 1 baseline: the sweep vs quantifier-elimination
// recomputation on the same past 1-NN query, with a correctness
// cross-check at probe instants.
func e5() error {
	fmt.Println("== E5: sweep vs QE baseline (Proposition 1), past 1-NN ==")
	ns := sizes([]int{32, 64, 128, 256, 512, 1024})
	q := workload.QueryTrajectory(workload.Config{}, *seedFlag+1)
	f := gdist.EuclideanSq{Query: q}
	var rows [][]string
	for _, n := range ns {
		db, err := movers(n)
		if err != nil {
			return err
		}
		knn := query.NewKNN(1)
		start := time.Now()
		if _, err := query.RunPast(db, f, 0, 50, knn); err != nil {
			return err
		}
		sweepT := time.Since(start).Seconds()
		start = time.Now()
		naive, err := baseline.AllPairsKNN(db, q, 1, 0, 50)
		if err != nil {
			return err
		}
		naiveT := time.Since(start).Seconds()
		// Correctness cross-check at off-event probes.
		mismatches := 0
		for p := 0; p < 200; p++ {
			tt := 50 * (float64(p) + 0.5) / 200
			want := knn.Answer().At(tt)
			var got []mod.OID
			for o, ss := range naive {
				if ss.Contains(tt) {
					got = append(got, o)
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if fmt.Sprint(want) != fmt.Sprint(got) {
				mismatches++
			}
		}
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.3g", sweepT*1e3),
			fmt.Sprintf("%.3g", naiveT*1e3),
			fmt.Sprintf("%.1fx", naiveT/sweepT),
			fmt.Sprint(mismatches),
		})
	}
	table("N\tsweep ms\tQE-naive ms\tspeedup\tanswer mismatches", rows)
	return nil
}

// e6 — Lemma 9: event-queue discipline. Queue length stays <= N, and the
// two queue structures (indexed heap, the paper's leftist tree) are
// interchangeable.
func e6() error {
	fmt.Println("== E6: event-queue discipline, Lemma 9 ==")
	ns := sizes([]int{1000, 2000, 4000, 8000})
	f, err := queryDist()
	if err != nil {
		return err
	}
	var rows [][]string
	for _, n := range ns {
		db, err := movers(n)
		if err != nil {
			return err
		}
		runWith := func(mk func() eventq.Queue) (float64, int, error) {
			e, err := query.NewEngine(query.EngineConfig{F: f, Lo: 0, Hi: 50, Queue: mk()})
			if err != nil {
				return 0, 0, err
			}
			if err := e.AddEvaluator(query.NewKNN(1)); err != nil {
				return 0, 0, err
			}
			start := time.Now()
			if err := e.Seed(db.Trajectories()); err != nil {
				return 0, 0, err
			}
			if err := e.Finish(); err != nil {
				return 0, 0, err
			}
			return time.Since(start).Seconds(), e.Sweeper().Stats().MaxQueueLen, nil
		}
		heapT, heapQ, err := runWith(func() eventq.Queue { return eventq.NewHeap() })
		if err != nil {
			return err
		}
		leftT, _, err := runWith(func() eventq.Queue { return eventq.NewLeftist() })
		if err != nil {
			return err
		}
		bound := "OK"
		if heapQ > n {
			bound = fmt.Sprintf("VIOLATED (%d > %d)", heapQ, n)
		}
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.3g", heapT*1e3),
			fmt.Sprintf("%.3g", leftT*1e3),
			fmt.Sprint(heapQ),
			bound,
		})
	}
	table("N\theap ms\tleftist ms\tmax queue len\tlen <= N", rows)
	return nil
}

// e7 — the Song–Roussopoulos comparison (Section 5 / Figure 2): sampled
// re-query misses order exchanges between samples; the sweep never does.
func e7() error {
	fmt.Println("== E7: SR01 sampled baseline vs sweep (Section 5, Figure 2) ==")
	n := 2000
	if *quickFlag {
		n = 500
	}
	db, err := workload.StationaryField(*seedFlag+3, n, 1000)
	if err != nil {
		return err
	}
	q := workload.QueryTrajectory(workload.Config{}, *seedFlag+4)
	const k, lo, hi = 3, 0.0, 100.0
	// Exact truth via the sweep.
	knn := query.NewKNN(k)
	start := time.Now()
	if _, err := query.RunPast(db, gdist.EuclideanSq{Query: q}, lo, hi, knn); err != nil {
		return err
	}
	sweepT := time.Since(start).Seconds()
	truth := func(tt float64) []mod.OID { return knn.Answer().At(tt) }
	// Change times: interval boundaries of the truth.
	var changes []float64
	for _, o := range knn.Answer().Objects() {
		for _, iv := range knn.Answer().Intervals(o) {
			changes = append(changes, iv.Lo, iv.Hi)
		}
	}
	sort.Float64s(changes)
	var rows [][]string
	for _, period := range []float64{20, 10, 5, 2, 1, 0.5, 0.1} {
		start := time.Now()
		sa, searches, err := baseline.SR01KNN(db, q, baseline.SR01Config{K: k, Period: period}, lo, hi)
		if err != nil {
			return err
		}
		el := time.Since(start).Seconds()
		c := baseline.Compare(truth, sa, changes, lo, hi, 2000)
		rows = append(rows, []string{
			fmt.Sprintf("%g", period),
			fmt.Sprint(searches),
			fmt.Sprintf("%.3g", el*1e3),
			fmt.Sprintf("%.1f%%", 100*c.WrongFraction()),
			fmt.Sprintf("%.1f%%", 100*c.MissedFraction()),
		})
	}
	table("period\tsearches\ttime ms\twrong answers\tmissed answer intervals", rows)
	fmt.Printf("sweep (exact; %d answer intervals): %.3g ms\n", len(changes)/2, sweepT*1e3)
	return nil
}
