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

// CommitPolicy selects what an acknowledged update has survived. Under
// either policy Engine.Apply and ApplyBatch acknowledge through
// Store.WaitDurable and return its error.
type CommitPolicy int

const (
	// CommitFlush flushes the journal's buffer to the segment file before
	// an update is acknowledged: an acked update survives a process crash
	// (kill -9) but not a power failure. The default.
	CommitFlush CommitPolicy = iota
	// CommitGroup enables group commit: a committer goroutine coalesces
	// the entries of concurrent appliers into one fsync, and an update
	// is acknowledged only after the fsync covering its entry returns.
	// An acked update survives power loss.
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
	j *mod.Journal
	m *engineMetrics

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

func newCommitter(j *mod.Journal, m *engineMetrics) *committer {
	c := &committer{j: j, m: m, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// run is the committer loop: sleep until a waiter needs an fsync, then
// fsync and resolve everything the fsync covered. Entries that arrive
// during an fsync ride the next one, which is all the batching there
// is. They wait to be buffered, though: mod.Journal.Sync holds the
// journal's lock across the fsync, and the journal's update listener
// takes that lock, so an apply on this shard waits out the fsync in
// flight (ROADMAP item 15, durability finding).
func (c *committer) run() {
	defer close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for !c.closed && c.want <= c.resolved {
			c.cond.Wait()
		}
		if c.want <= c.resolved { // closed and drained
			return
		}
		target := c.j.Seq()
		c.finishLocked(target, c.j.Sync())
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
