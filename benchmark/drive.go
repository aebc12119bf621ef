package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mod"
)

// Phases of a drive. Connections run from warm-up into the window
// without a pause; only what completes inside the window is measured.
const (
	phaseWarm int32 = iota
	phaseWindow
	phaseStop
)

// reqIDHeader carries the request id a traced run ties its spans with.
const reqIDHeader = "X-Bench-Req"

// keepEvery is the stride, in live-mix cycles, at which query answers
// are kept for the correctness gate.
const keepEvery = 8

// laneResult is what one connection did.
type laneResult struct {
	// done counts the requests answered, warm-up included: the prefix
	// of the lane's stream the server has applied.
	done int
	// ms holds the latency of every request that was answered 200
	// inside the window, by op, in completion order; at holds when each
	// completed, in seconds since the window opened.
	ms [numOps][]float64
	at [numOps][]float64
	// failed counts window requests that were refused, not 200, or
	// lost to a transport error.
	failed int
	// updates counts the updates acknowledged inside the window.
	updates   int
	respBytes int64
	// kept holds response bodies for the correctness gate, by request
	// index.
	kept map[int][]byte
	err  error
}

// driveResult is one warm-up plus window against one target.
type driveResult struct {
	lanes   []laneResult
	seconds float64 // measured length of the window
	// sends holds, for a live-mix lane, when each update went out.
	sends []sendRecord
	watch []watchRecord
}

// sendRecord is one update of the writing connection: its database
// time and when the request was written.
type sendRecord struct {
	tau  float64
	sent time.Time
}

// watchRecord is one delta of the watch stream: its database time and
// when the client had read it.
type watchRecord struct {
	t        float64
	received time.Time
}

func (d *driveResult) attempted() int {
	n := 0
	for i := range d.lanes {
		n += d.lanes[i].failed
		for _, ms := range d.lanes[i].ms {
			n += len(ms)
		}
	}
	return n
}

func (d *driveResult) failed() int {
	n := 0
	for i := range d.lanes {
		n += d.lanes[i].failed
	}
	return n
}

// latencies returns the window's latencies of one op over all lanes,
// sorted.
func (d *driveResult) latencies(o op) []float64 {
	var all []float64
	for i := range d.lanes {
		all = append(all, d.lanes[i].ms[o]...)
	}
	sort.Float64s(all)
	return all
}

// sliceSeconds is the length of the slices a window is cut into. The
// sandbox's two cores are shared, and a neighbour's burst slows the
// server by a quarter for seconds at a time; an end-to-end metric is
// therefore computed per slice and reported as the median over the
// slices, which a burst shorter than half the window cannot move.
const sliceSeconds = 2.0

// slices returns how many whole slices the window holds, at least one.
func (d *driveResult) slices() int {
	return max(1, int(d.seconds/sliceSeconds))
}

// sliceOf returns the slice a completion at the given time since the
// window opened falls in; false for what completed after the last
// whole slice. A window shorter than two slices is one slice.
func (d *driveResult) sliceOf(at float64) (int, bool) {
	n := d.slices()
	if n == 1 {
		return 0, true
	}
	s := int(at / sliceSeconds)
	return s, s < n
}

// sliceLatencies returns the latencies of one op by the slice they
// completed in, each slice sorted.
func (d *driveResult) sliceLatencies(o op) [][]float64 {
	out := make([][]float64, d.slices())
	for i := range d.lanes {
		for j, ms := range d.lanes[i].ms[o] {
			if s, ok := d.sliceOf(d.lanes[i].at[o][j]); ok {
				out[s] = append(out[s], ms)
			}
		}
	}
	for _, ms := range out {
		sort.Float64s(ms)
	}
	return out
}

// sliceMedian applies f to each non-empty slice of an op's latencies
// and returns the median of the results.
func (d *driveResult) sliceMedian(o op, f func(sorted []float64) float64) float64 {
	var per []float64
	for _, ms := range d.sliceLatencies(o) {
		if len(ms) > 0 {
			per = append(per, f(ms))
		}
	}
	return median(per)
}

// opsPerSecond is the median over the slices of the rate at which
// requests of any op completed: the completions of a slice but one,
// over the time from its first to its last.
func (d *driveResult) opsPerSecond() float64 {
	times := make([][]float64, d.slices())
	for i := range d.lanes {
		for _, ats := range d.lanes[i].at {
			for _, at := range ats {
				if s, ok := d.sliceOf(at); ok {
					times[s] = append(times[s], at)
				}
			}
		}
	}
	var rates []float64
	for _, ts := range times {
		if len(ts) < 2 {
			continue
		}
		sort.Float64s(ts)
		rates = append(rates, float64(len(ts)-1)/(ts[len(ts)-1]-ts[0]))
	}
	return median(rates)
}

// newClient returns a client that owns exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// driver sends pre-generated requests over one connection per lane.
type driver struct {
	base  string
	phase atomic.Int32
	// opened is when the window opened; it is written before phase
	// turns to phaseWindow and read only after.
	opened time.Time
	// span, when set, records a client span around each request.
	span func(name, reqID string, start, end time.Time)
}

// do sends one request and returns the status and the body.
func (d *driver) do(ctx context.Context, c *http.Client, r *request, reqID string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+opPath[r.op], bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	if r.op == opBatch {
		req.Header.Set("Content-Type", mod.BinaryUpdatesContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(reqIDHeader, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// runLane sends reqs in order until the phase turns to stop. keep says
// which answers to retain.
func (d *driver) runLane(ctx context.Context, lane int, reqs []request, keep func(i int) bool, sends *[]sendRecord) laneResult {
	res := laneResult{kept: map[int][]byte{}}
	c := newClient()
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for i := range reqs {
		if d.phase.Load() == phaseStop || ctx.Err() != nil {
			return res
		}
		r := &reqs[i]
		reqID := ""
		if d.span != nil {
			reqID = strconv.Itoa(lane) + "-" + strconv.Itoa(i)
		}
		start := time.Now()
		status, err := d.do(ctx, c, r, reqID, &buf)
		end := time.Now()
		if ctx.Err() != nil {
			return res
		}
		if d.span != nil {
			d.span("client."+opName[r.op], reqID, start, end)
		}
		if sends != nil && r.update != nil {
			*sends = append(*sends, sendRecord{tau: r.update.Tau, sent: start})
		}
		if err != nil || status != http.StatusOK {
			// A rejected update leaves the rest of the stream invalid,
			// and nothing in these workloads may fail: stop here.
			res.failed++
			if err == nil {
				err = fmt.Errorf("%s: status %d: %s", opPath[r.op], status, bytes.TrimSpace(buf.Bytes()))
			}
			res.err = fmt.Errorf("lane %d request %d: %w", lane, i, err)
			return res
		}
		res.done = i + 1
		// A request belongs to the phase it completes in.
		if d.phase.Load() != phaseWindow {
			continue
		}
		res.ms[r.op] = append(res.ms[r.op], float64(end.Sub(start).Nanoseconds())/1e6)
		res.at[r.op] = append(res.at[r.op], end.Sub(d.opened).Seconds())
		res.updates += r.updates
		res.respBytes += int64(buf.Len())
		if keep != nil && keep(i) {
			res.kept[i] = bytes.Clone(buf.Bytes())
		}
	}
	if d.phase.Load() != phaseStop {
		res.err = fmt.Errorf("lane %d: the stream of %d requests ran out before the window ended; raise the workload's capacity", lane, len(reqs))
	}
	return res
}

// watchLane holds one POST /watch/knn stream open and timestamps each
// delta it reads inside the window.
func (d *driver) watchLane(ctx context.Context, body []byte, ready chan<- error) ([]watchRecord, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/watch/knn", bytes.NewReader(body))
	if err != nil {
		ready <- err
		return nil, err
	}
	resp, err := c.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close() // only the status matters
		err = fmt.Errorf("POST /watch/knn: %s", resp.Status)
	}
	if err != nil {
		ready <- err
		return nil, err
	}
	defer resp.Body.Close()
	var recs []watchRecord
	opened := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev struct {
			T      float64 `json:"t"`
			Resync bool    `json:"resync"`
			Done   bool    `json:"done"`
			Error  string  `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return recs, fmt.Errorf("watch record %q: %w", data, err)
		}
		if !opened {
			// The first record is the full answer at subscription
			// time: the stream is live, the writer may start.
			opened = true
			ready <- nil
			continue
		}
		if ev.Done {
			return recs, fmt.Errorf("watch ended early: %s", ev.Error)
		}
		// A resync replaces the answer instead of reporting one
		// change, so it has no single update to be late against.
		if !ev.Resync && d.phase.Load() == phaseWindow {
			recs = append(recs, watchRecord{t: ev.T, received: now})
		}
	}
	if !opened {
		ready <- errors.New("watch stream closed before its first record")
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return recs, err
	}
	return recs, nil
}

// driveHooks are the optional callbacks of a drive.
type driveHooks struct {
	// windowStart runs between warm-up and window, while the
	// connections keep sending.
	windowStart func() error
	// span records a client span around each request.
	span func(name, reqID string, start, end time.Time)
}

// drive warms the target up, then measures for the window.
func drive(ctx context.Context, t *target, p *plan, lanes [][]request, tm timing, hooks driveHooks) (*driveResult, error) {
	d := &driver{base: t.base, span: hooks.span}
	res := &driveResult{lanes: make([]laneResult, len(lanes))}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var watchWG sync.WaitGroup
	var watchErr error
	var keep func(int) bool
	var sends *[]sendRecord
	if p.watch != nil {
		ready := make(chan error, 1)
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			res.watch, watchErr = d.watchLane(ctx, p.watch, ready)
		}()
		if err := <-ready; err != nil {
			cancel()
			watchWG.Wait()
			return nil, err
		}
		const perCycle = liveUpdates + 2
		keep = func(i int) bool { return i%perCycle >= liveUpdates && (i/perCycle)%keepEvery == 0 }
		sends = &res.sends
	}
	var lanesWG sync.WaitGroup
	for i := range lanes {
		lanesWG.Add(1)
		go func(i int) {
			defer lanesWG.Done()
			res.lanes[i] = d.runLane(ctx, i, lanes[i], keep, sends)
			if res.lanes[i].err != nil {
				cancel() // one broken lane ends the run
			}
		}(i)
	}
	sleep := func(dur time.Duration) {
		select {
		case <-ctx.Done():
		case <-time.After(dur):
		}
	}
	sleep(tm.warm)
	var hookErr error
	if hooks.windowStart != nil && ctx.Err() == nil {
		hookErr = hooks.windowStart()
	}
	start := time.Now()
	d.opened = start
	d.phase.Store(phaseWindow)
	if hookErr == nil {
		sleep(tm.window)
	}
	d.phase.Store(phaseStop)
	res.seconds = time.Since(start).Seconds()
	lanesWG.Wait()
	cancel() // closes the watch stream
	watchWG.Wait()

	errs := []error{parent.Err(), hookErr, t.failed()}
	for i := range res.lanes {
		errs = append(errs, res.lanes[i].err)
	}
	if watchErr != nil && !errors.Is(watchErr, context.Canceled) {
		errs = append(errs, watchErr)
	}
	return res, errors.Join(errs...)
}

// deltaLags matches each watch record with the update that made it
// visible — the first update sent whose time is at or after the
// record's — and returns the delays in milliseconds, sorted. sends must
// be in sending order, which is time order.
func deltaLags(recs []watchRecord, sends []sendRecord) []float64 {
	var lags []float64
	for _, r := range recs {
		i := sort.Search(len(sends), func(i int) bool { return sends[i].tau >= r.t })
		if i == len(sends) {
			continue // caused by an update the window did not see sent
		}
		lags = append(lags, float64(r.received.Sub(sends[i].sent).Nanoseconds())/1e6)
	}
	sort.Float64s(lags)
	return lags
}
