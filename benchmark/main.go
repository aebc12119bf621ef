// Command benchmark measures modserve end to end and layer by layer.
//
// It builds cmd/modserve from the checkout, starts it as a child on a
// loopback port, loads a population over HTTP and drives one of four
// workloads against it from a closed loop of two connections, with
// every request generated from -seed before the window opens. See
// README.md for what each workload stresses and how to read the output.
//
//	go run . -workload past-sweep -seed 1 -seconds 20 -trace 0
//	go run . -runs 10 -out out/set-A.json     every workload, ten seeds
//	go run . -diff baseline/set-A.json baseline/set-B.json
//
// With -trace 0 a run reports the end-to-end metrics; with -trace 1 the
// per-layer metrics, from the server's own counters across an untraced
// window, from spans recorded around each layer in a traced in-process
// run, and from probes of single functions. The last line of standard
// output is the JSON object the benchmark contract asks for.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runSeconds is the window length the driver uses (run_seconds in
// BENCHMARK.json) and the default of -seconds.
const runSeconds = 20

// warmup is how long the connections run before the window opens.
const warmup = 3 * time.Second

// setupRepeats is how often a run starts and loads the server; it
// reports the median. A set-up takes 15-50 ms, most of it process
// start, so single ones vary by half.
const setupRepeats = 7

func main() {
	workloadFlag := flag.String("workload", "", "run one workload: past-sweep, uncertain-read, ingest-durable or live-mix (default: all four, both with and without -trace)")
	seedFlag := flag.Int64("seed", 1, "seed every input is generated from")
	secondsFlag := flag.Int("seconds", runSeconds, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics, with a traced run (default: 0 with -workload, both without)")
	runsFlag := flag.Int("runs", 1, "with no -workload: how many seeds to run each workload on, counting up from -seed")
	outFlag := flag.String("out", "", "write the full result set to this file as JSON")
	diffFlag := flag.Bool("diff", false, "compare two result sets: -diff A.json B.json")
	contractFlag := flag.Bool("contract", false, "print BENCHMARK.json and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *contractFlag:
		err = printContract(os.Stdout)
	case *diffFlag:
		if flag.NArg() != 2 {
			err = errors.New("usage: -diff A.json B.json")
		} else {
			err = runDiff(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *workloadFlag != "":
		err = runOne(ctx, *workloadFlag, *seedFlag, *secondsFlag, max(*traceFlag, 0), *outFlag)
	default:
		err = runAll(ctx, *seedFlag, *secondsFlag, *runsFlag, *traceFlag, *outFlag)
	}
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultSet is the file -out writes and -diff reads.
type resultSet struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Started    time.Time `json:"started"`
	Results    []result  `json:"results"`
}

func newResultSet(root string) *resultSet {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &resultSet{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Started: time.Now().UTC(),
	}
}

func (s *resultSet) write(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne is the invocation the benchmark contract describes: one
// workload, one seed, and the contract's JSON object as the last line.
func runOne(ctx context.Context, name string, seed int64, seconds, trace int, out string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	e, err := newEnv(ctx)
	if err != nil {
		return err
	}
	defer e.close()
	res, err := e.run(ctx, w, seed, seconds, trace)
	if err != nil {
		return err
	}
	printResult(res)
	set := newResultSet(e.root)
	set.Results = []result{*res}
	if err := set.write(out); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload on runs seeds, end to end and per layer
// unless trace picks one of the two, and prints every metric; it is
// what fills a result set for -diff.
func runAll(ctx context.Context, seed int64, seconds, runs, only int, out string) error {
	e, err := newEnv(ctx)
	if err != nil {
		return err
	}
	defer e.close()
	set := newResultSet(e.root)
	correct := true
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if only >= 0 && only != trace {
					continue
				}
				res, err := e.run(ctx, w, seed+int64(i), seconds, trace)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				printResult(res)
				correct = correct && res.Correct
				set.Results = append(set.Results, *res)
				if err := set.write(out); err != nil {
					return err
				}
			}
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// run performs one measurement of one workload.
func (e *env) run(ctx context.Context, w workloadDef, seed int64, seconds, trace int) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace}
	window := time.Duration(seconds) * time.Second
	full := timing{warm: warmup, window: window, setups: setupRepeats}
	p, err := w.build(seed, full)
	if err != nil {
		return nil, err
	}
	if trace == 0 {
		m, err := e.measure(ctx, w, p, seed, full)
		if err != nil {
			return nil, err
		}
		m.gate(res)
		res.Metrics = endToEndMetrics(m)
		return res, nil
	}
	// A per-layer run splits the window between the untraced child,
	// whose counters it reads, and the traced in-process server.
	m, err := e.measure(ctx, w, p, seed, timing{warm: warmup, window: window / 2, setups: 1})
	if err != nil {
		return nil, err
	}
	m.gate(res)
	r := newReport(perLayer)
	childLayerMetrics(r, m)
	if err := e.traced(ctx, r, res, m, timing{warm: time.Second, window: window / 2}); err != nil {
		return nil, err
	}
	res.Metrics = r.complete()
	return res, nil
}

// printResult prints every metric of a result by name, with its unit.
func printResult(res *result) {
	fmt.Printf("== %s  seed=%d seconds=%d trace=%d  correct=%v attempted=%d failed=%d checked=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed, res.Checked)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	ops := make([]string, 0, len(res.Samples))
	for o, n := range res.Samples {
		ops = append(ops, fmt.Sprintf("%s=%d", o, n))
	}
	sort.Strings(ops)
	fmt.Printf("samples: %s\n", strings.Join(ops, " "))
	if len(res.TraceShares) > 0 {
		fmt.Printf("traced self time by layer: client %.1f%%, server %.1f%%, backend %.1f%%\n",
			100*res.TraceShares["client"], 100*res.TraceShares["server"], 100*res.TraceShares["backend"])
	}
	if res.AnswersDigest != "" {
		fmt.Printf("answers_digest: %s\n", res.AnswersDigest)
	}
	for _, bad := range res.Mismatches {
		fmt.Printf("MISMATCH: %s\n", bad)
	}
}

// printContract writes BENCHMARK.json from the tables the harness
// itself reports by, so the two cannot drift.
func printContract(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
