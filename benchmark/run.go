package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"

	"repro/internal/mod"
)

// checkpointEvery is the durable workload's checkpoint period: five
// cycles in a 20 s window. A checkpoint deep-copies the database with
// its whole update log, so it gets slower as the run goes on; a shorter
// period makes the window's throughput fall so steeply that the metric
// depends on how much work the warm-up happened to get done.
const checkpointEvery = 4 * time.Second

// timing is the shape of one measurement.
type timing struct {
	warm   time.Duration
	window time.Duration
	// setups is how many times the server is started and loaded; the
	// set-up time reported is the median.
	setups int
}

// env is where a run builds and scratches.
type env struct {
	root    string // the checkout
	bin     string // the modserve built from it
	scratch string // removed when the run ends
}

func newEnv(ctx context.Context) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildModserve(ctx, root)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(buildDir(root), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, scratch: scratch}, nil
}

func (e *env) close() { removeSettled(e.scratch) }

// removeSettled deletes a scratch directory and waits until the
// filesystem has digested that. Freeing a few hundred megabytes leaves
// journal commits — and, on a volume mounted with discard, trims —
// behind, and the fsyncs of whatever runs next wait for them: without
// this, each durable run is slower than the one before.
func removeSettled(dir string) {
	_ = os.RemoveAll(dir) // scratch under .bench_build; a leftover is harmless
	syscall.Sync()
}

// scrape is a child server's counters at one instant.
type scrape struct {
	obs  counters
	mem  memStats
	proc procStat
	dir  int64 // bytes under the data directory
}

func takeScrape(ctx context.Context, t *target, dataDir string) (scrape, error) {
	var s scrape
	var err error
	if s.obs, err = scrapeMetrics(ctx, t.base); err != nil {
		return s, err
	}
	if s.mem, err = scrapeMemStats(ctx, t.base); err != nil {
		return s, err
	}
	if s.proc, err = readProc(t.pid); err != nil {
		return s, err
	}
	if dataDir != "" {
		if s.dir, err = dirBytes(dataDir); err != nil {
			return s, err
		}
	}
	return s, nil
}

// measurement is one workload driven against a child modserve, with
// everything read from outside the process around the window.
type measurement struct {
	w     workloadDef
	plan  *plan
	drive *driveResult
	// before and after bracket the window.
	before, after scrape
	// replayed is the change of the server's counters across the
	// replay of the static workloads: the work of a fixed set of
	// requests sent one at a time, which repeats exactly.
	replayed     counters
	setupSeconds []float64
	// recovery is the counters of the server restarted after kill -9,
	// on the durable workload.
	recovery counters
	// checked counts the answers the correctness gate compared;
	// mismatches lists what it found wrong.
	checked    int
	mismatches []string
	// digest is the sha256 of the replayed answers on the static
	// workloads.
	digest string
}

// setUp starts a server and loads the population, and returns how long
// that took. The time excludes building the binary and the warm-up: a
// fixed three seconds of warm-up would hide most of a change in what
// the server itself does to get ready.
func (e *env) setUp(ctx context.Context, batches [][]byte, dataDir string) (*target, float64, error) {
	start := time.Now()
	t, err := startChild(ctx, e.bin, dataDir)
	if err != nil {
		return nil, 0, err
	}
	if err := preload(ctx, t.base, batches); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(start).Seconds(), nil
}

// measure runs workload w against a child server.
func (e *env) measure(ctx context.Context, w workloadDef, p *plan, seed int64, tm timing) (*measurement, error) {
	m := &measurement{w: w, plan: p}
	batches, err := p.pop.batches()
	if err != nil {
		return nil, err
	}
	var t *target
	var dataDir string
	defer func() {
		if t != nil {
			t.stop()
		}
		if dataDir != "" {
			removeSettled(dataDir)
		}
	}()
	for i := 0; i < tm.setups; i++ {
		if t != nil {
			t.stop()
		}
		if w.durable {
			if dataDir != "" {
				removeSettled(dataDir)
			}
			if dataDir, err = os.MkdirTemp(e.scratch, "data-"); err != nil {
				return nil, err
			}
		}
		var secs float64
		if t, secs, err = e.setUp(ctx, batches, dataDir); err != nil {
			return nil, err
		}
		m.setupSeconds = append(m.setupSeconds, secs)
	}

	hooks := driveHooks{
		windowStart: func() error {
			var err error
			m.before, err = takeScrape(ctx, t, dataDir)
			return err
		},
	}
	if m.drive, err = drive(ctx, t, p, p.lanes, tm, hooks); err != nil {
		return m, err
	}
	if m.after, err = takeScrape(ctx, t, dataDir); err != nil {
		return m, err
	}

	switch {
	case p.replay:
		if m.digest, m.checked, m.mismatches, err = checkStatic(ctx, t.base, p.pop.model, p.lanes, replayPerOp); err != nil {
			return m, err
		}
		var end counters
		if end, err = scrapeMetrics(ctx, t.base); err == nil {
			m.replayed = end.minus(m.after.obs)
		}
	case p.watch != nil:
		m.checked, m.mismatches, err = checkLive(p.pop.model, p.lanes[0], &m.drive.lanes[0])
	case w.durable:
		t, err = e.checkDurable(ctx, m, t, seed, dataDir)
	}
	return m, err
}

// durableModel is the population plus every update the writers had
// acknowledged when the drive ended.
func durableModel(p *plan, seed int64, d *driveResult) (*mod.DB, error) {
	done := make([]int, len(d.lanes))
	for i := range done {
		done[i] = d.lanes[i].done
	}
	us, err := ingestUpdates(seed, p.pop.model, done)
	if err != nil {
		return nil, err
	}
	model := p.pop.model.Snapshot()
	if err := model.ApplyAll(us...); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return model, nil
}

// compareState fetches the server's snapshot and describes how it
// differs from the model, or returns "".
func compareState(ctx context.Context, base string, model *mod.DB) (string, error) {
	got, err := fetchSnapshot(ctx, base)
	if err != nil {
		return "", err
	}
	if got.StateEqual(model) {
		return "", nil
	}
	return fmt.Sprintf("server state differs from the model (server %d objects tau %v, model %d objects tau %v)",
		got.Len(), got.Tau(), model.Len(), model.Tau()), nil
}

// checkDurable compares the server's state with the model, kills the
// server, restarts it on the same directory and compares again: every
// acknowledged update must have survived. It returns the restarted
// server.
func (e *env) checkDurable(ctx context.Context, m *measurement, t *target, seed int64, dataDir string) (*target, error) {
	model, err := durableModel(m.plan, seed, m.drive)
	if err != nil {
		return t, err
	}
	compare := func(when string) error {
		bad, err := compareState(ctx, t.base, model)
		m.checked++
		if bad != "" {
			m.mismatches = append(m.mismatches, when+": "+bad)
		}
		return err
	}
	if err := compare("before kill -9"); err != nil {
		return t, err
	}
	t.stop()
	restarted, err := startChild(ctx, e.bin, dataDir)
	if err != nil {
		return t, fmt.Errorf("restart after kill -9: %w", err)
	}
	t = restarted
	if m.recovery, err = scrapeMetrics(ctx, t.base); err != nil {
		return t, err
	}
	return t, compare("after restart")
}

// result is what one invocation reports for one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples counts the latency samples behind each op's percentiles.
	Samples map[string]int `json:"samples"`
	// Checked counts the answers compared with an oracle or the model.
	Checked       int      `json:"checked"`
	AnswersDigest string   `json:"answers_digest,omitempty"`
	Mismatches    []string `json:"mismatches,omitempty"`
	// TraceShares is each layer's share of the traced run's client
	// span time, by self time.
	TraceShares map[string]float64 `json:"trace_shares,omitempty"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minSamples is the fewest window samples an op a workload issues may
// have; below it the percentiles mean nothing and the run fails.
const minSamples = 100

// gate fills the pass/fail part of a result from a measurement. The
// sample floor applies to the run that reports percentiles end to end.
func (m *measurement) gate(r *result) {
	r.Attempted = m.drive.attempted()
	r.Failed = m.drive.failed() + len(m.mismatches)
	r.Checked = m.checked
	r.AnswersDigest = m.digest
	r.Mismatches = m.mismatches
	r.Samples = map[string]int{}
	for o := op(0); o < numOps; o++ {
		if n := len(m.drive.latencies(o)); n > 0 {
			r.Samples[opName[o]] = n
		}
	}
	for _, o := range m.w.slots {
		if n := r.Samples[opName[o]]; r.Trace == 0 && n < minSamples {
			r.Mismatches = append(r.Mismatches, fmt.Sprintf("%s: %d samples in the window, want at least %d", opName[o], n, minSamples))
		}
	}
	r.Correct = r.Failed == 0 && len(r.Mismatches) == 0 && r.Checked > 0
}

var errIncorrect = errors.New("the correctness gate failed")
