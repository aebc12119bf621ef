package durable

// Group commit: the journal commit pipeline that amortizes fsyncs over
// concurrent appliers.
//
// With CommitGroup, Apply callers do not fsync. They apply (which
// buffers the journal entry under the journal's lock and assigns it a
// sequence number), then block in WaitDurable until the committer
// goroutine's next fsync covers their entry. The committer loop reads
// the journal's high-water sequence, issues one flush+fsync, and
// resolves every waiter at or below that sequence — so however many
// entries were buffered since the previous fsync are all made durable
// by the next one. Under concurrency the entries-per-fsync
// ratio grows with offered load and the per-update fsync cost shrinks
// proportionally; this is classic write-ahead-log group commit.
//
// The ack contract is exactly PR 4's crash-matrix guarantee: an update
// whose Apply+WaitDurable pair returned nil is on stable storage and
// survives any later crash. The contract is conservative in the other
// direction — a sync or rotation failure resolves the affected sequence
// range with an error even when a concurrent checkpoint may yet persist
// those entries via its snapshot; a false "not durable" never breaks
// "acked => recovered".

import (
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/mod"
)

// CommitPolicy selects how an applied update becomes durable.
type CommitPolicy int

const (
	// CommitFlushEach flushes (no fsync) the journal after every update:
	// an acked update survives a process crash (kill -9) but not a power
	// failure. The historical default.
	CommitFlushEach CommitPolicy = iota
	// CommitNone performs no per-update flush; the loss bound on a
	// process crash is the journal's write buffer. Fastest, for bulk
	// loads and replays that checkpoint at the end.
	CommitNone
	// CommitSyncEach flushes and fsyncs after every update: the
	// strongest per-update guarantee, at one fsync per update.
	CommitSyncEach
	// CommitGroup enables group commit: appliers enqueue entries, a
	// committer goroutine coalesces them into one fsync, and
	// Store.WaitDurable (called by Engine.Apply/ApplyBatch) blocks until
	// the fsync covering the caller's entries returns. Per-update
	// guarantee of CommitSyncEach at a fraction of the fsyncs.
	CommitGroup
)

// errCommitterClosed resolves waiters that outlive the committer.
var errCommitterClosed = errors.New("durable: store closed before commit")

// seqRange records a resolved-with-error sequence interval (lo, hi]: a
// sync or rotation failure whose entries must never be acked, even
// though later fsyncs (on a fresh segment) succeed beyond it.
type seqRange struct {
	lo, hi uint64
	err    error
}

// committer is the per-store group-commit pipeline.
type committer struct {
	j        *mod.Journal
	interval time.Duration // coalescing window before each fsync (0: none)
	maxBatch int           // skip the window once this many entries wait
	m        *engineMetrics

	mu   sync.Mutex
	cond *sync.Cond
	// Watermarks over the journal sequence: every seq <= resolved has a
	// known outcome; seqs <= synced are durable unless claimed by a
	// failed range (checked first — failure is sticky and conservative).
	want     uint64 // highest seq any waiter needs resolved
	resolved uint64
	synced   uint64
	failed   []seqRange
	closed   bool
	done     chan struct{}
}

func newCommitter(j *mod.Journal, interval time.Duration, maxBatch int, m *engineMetrics) *committer {
	if maxBatch <= 0 {
		maxBatch = 256
	}
	c := &committer{j: j, interval: interval, maxBatch: maxBatch, m: m, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// run is the committer loop: sleep until a waiter needs an fsync,
// optionally hold a coalescing window, then fsync and resolve everything
// the fsync covered. Entries accumulate in the journal buffer during the
// coalescing window only: mod.Journal.Sync holds the journal's lock
// across the fsync, and the journal's update listener takes that lock,
// so an apply on this shard waits out the fsync in flight and its entry
// rides the next one (ROADMAP item 4, durability finding).
func (c *committer) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for !c.closed && c.want <= c.resolved {
			c.cond.Wait()
		}
		if c.want <= c.resolved { // closed and drained
			c.mu.Unlock()
			return
		}
		closed := c.closed
		resolved := c.resolved
		c.mu.Unlock()

		if !closed && c.interval > 0 && int(c.j.Seq()-resolved) < c.maxBatch {
			// Coalescing window: give concurrent appliers time to add
			// their entries to this commit, unless a full batch already
			// waits. Tunable via -commit-interval; 0 means the fsync
			// rate itself is the only batching (still effective: every
			// entry that arrives during an fsync rides the next one).
			time.Sleep(c.interval)
		}

		c.mu.Lock()
		target := c.j.Seq()
		err := c.j.Sync()
		c.finishLocked(target, err)
		c.mu.Unlock()
	}
}

// finishLocked resolves all seqs <= target with the outcome of the fsync
// (or rotation) that covered them.
func (c *committer) finishLocked(target uint64, err error) {
	if err == nil {
		if target > c.synced {
			if c.m != nil && target > c.resolved {
				c.m.commitFsyncs.Inc()
				c.m.commitEntries.Add(target - c.resolved)
				c.m.commitBatch.Observe(float64(target - c.resolved))
			}
			c.synced = target
		}
	} else if target > c.resolved {
		c.failed = append(c.failed, seqRange{lo: c.resolved, hi: target, err: err})
	}
	if target > c.resolved {
		c.resolved = target
	}
	c.cond.Broadcast()
}

// rotate redirects the journal to w (the checkpoint's fresh segment)
// and resolves everything buffered so far with the old segment's final
// flush+fsync outcome — atomically with respect to the commit loop, so
// an fsync of the new segment can never ack entries that only ever
// reached the old one. Returns the old segment's flush/sync error (the
// caller decides whether the old tail matters; see Store.Checkpoint).
func (c *committer) rotate(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq, err := c.j.Rotate(w)
	c.finishLocked(seq, err)
	return err
}

// waitFor blocks until every journal entry with sequence <= seq has a
// durability outcome, and returns it: nil exactly when the flush+fsync
// covering the entries succeeded.
func (c *committer) waitFor(seq uint64) error {
	var start time.Time
	if c.m != nil {
		start = time.Now()
	}
	c.mu.Lock()
	if seq > c.want {
		c.want = seq
		c.cond.Broadcast()
	}
	for c.resolved < seq && !c.closed {
		c.cond.Wait()
	}
	err := c.outcomeLocked(seq)
	c.mu.Unlock()
	if c.m != nil {
		c.m.commitWaitSecs.Observe(time.Since(start).Seconds())
	}
	return err
}

func (c *committer) outcomeLocked(seq uint64) error {
	for _, r := range c.failed {
		if seq > r.lo && seq <= r.hi {
			return r.err
		}
	}
	if seq <= c.synced {
		return nil
	}
	return errCommitterClosed
}

// shutdown wakes the committer for a final drain (one last fsync if
// waiters are pending) and blocks until the loop exits. Called by
// Store.Close before closing the journal.
func (c *committer) shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	<-c.done
}
