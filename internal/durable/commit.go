package durable

// The ack pipeline: what decides that an applied update is durable.
//
// An update's journal entry is identified by its own tau: a shard's
// database applies updates in strictly increasing tau and its journal
// records them in that order (mod.Mark). Every flush, fsync and
// rotation resolves the entries up to the journal mark it covered, with
// its outcome; a failure claims its entries for good, even when a later
// flush or fsync (of a fresh segment, after a rotation) succeeds. A
// caller is acknowledged from its own entries' outcome, never from the
// journal's high-water mark, which another writer's entry can move past
// an entry that was lost.
//
// With CommitGroup, Apply callers do not fsync. They apply (which
// buffers the journal entry under the journal's lock), then block in
// WaitDurable until the committer goroutine's next fsync covers their
// entry. The committer loop reads the journal's mark, issues one
// flush+fsync, and resolves every entry up to that mark — so however
// many entries were buffered since the previous fsync are all made
// durable by the next one. Under concurrency the entries-per-fsync
// ratio grows with offered load and the per-update fsync cost shrinks
// proportionally; this is classic write-ahead-log group commit. With
// CommitFlush there is no goroutine: WaitDurable flushes and resolves
// synchronously.
//
// The contract is conservative in one direction only: a flush, sync or
// rotation failure resolves the affected entries with an error even
// when a concurrent checkpoint may yet persist them via its snapshot; a
// false "not durable" never breaks "acked => recovered".

import (
	"errors"
	"io"
	"math"
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

// tauRange is a failed interval (lo, hi] of entry taus: a flush, sync
// or rotation failure whose entries must never be acked.
type tauRange struct {
	lo, hi float64
	err    error
}

// committer resolves a store's journal entries.
type committer struct {
	j     *mod.Journal
	m     *engineMetrics // nil unless group commit is instrumented
	group bool

	mu   sync.Mutex
	cond *sync.Cond
	// Every entry up to resolved has a known outcome: entries with tau
	// <= synced are durable under the policy (fsynced, or flushed)
	// unless a failed range claims them (checked first — failure is
	// sticky and conservative).
	want     float64 // highest tau a waiter needs resolved (group commit)
	resolved mod.Mark
	synced   float64
	failed   []tauRange
	closed   bool
	done     chan struct{}
}

// newCommitter resolves j's entries by group commit (a goroutine that
// fsyncs, recording into m when it is non-nil) or by flush commit (in
// the waiter).
func newCommitter(j *mod.Journal, group bool, m *engineMetrics) *committer {
	inf := math.Inf(-1)
	c := &committer{j: j, group: group, want: inf, resolved: mod.Mark{Tau: inf}, synced: inf, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	if group {
		c.m = m
		go c.run()
	} else {
		close(c.done)
	}
	return c
}

// run is the group-commit loop: sleep until a waiter needs an fsync,
// then fsync and resolve everything the fsync covered. Entries that
// arrive during an fsync ride the next one, which is all the batching
// there is; the journal's lock is not held across the fsync, so they
// are buffered meanwhile.
func (c *committer) run() {
	defer close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for !c.closed && c.want <= c.resolved.Tau {
			c.cond.Wait()
		}
		if c.want <= c.resolved.Tau { // closed and drained
			return
		}
		target := c.j.Mark()
		c.finishLocked(target, c.j.Sync())
	}
}

// finishLocked resolves every entry up to target with the outcome of
// the flush, fsync or rotation that covered them.
func (c *committer) finishLocked(target mod.Mark, err error) {
	if target.Tau <= c.resolved.Tau {
		return
	}
	if err == nil {
		if c.m != nil {
			c.m.commitFsyncs.Inc()
			c.m.commitEntries.Add(target.Seq - c.resolved.Seq)
			c.m.commitBatch.Observe(float64(target.Seq - c.resolved.Seq))
		}
		c.synced = target.Tau
	} else {
		c.failed = append(c.failed, tauRange{lo: c.resolved.Tau, hi: target.Tau, err: err})
	}
	c.resolved = target
	c.cond.Broadcast()
}

// rotate redirects the journal to w (the checkpoint's fresh segment;
// see mod.Journal.Rotate for persist) and resolves everything handed to
// the old segment with its final flush+fsync outcome — atomically with
// respect to every other resolution, so a flush or fsync of the new
// segment can never ack entries that only ever reached the old one.
// Returns the old segment's error.
func (c *committer) rotate(w io.Writer, persist func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.j.Rotate(w, persist)
	c.finishLocked(m, err)
	return err
}

// wait returns the durability outcome of the caller's own entries, the
// taus in [lo, hi], once they have one: under group commit when the
// committer's fsync covering hi returns, under flush commit after the
// flush it runs itself. Taus past the journal's mark were never handed
// to it (updates the database refused), so they are not waited for.
func (c *committer) wait(lo, hi float64) error {
	hi = math.Min(hi, c.j.Mark().Tau)
	if lo > hi {
		return nil
	}
	if !c.group {
		c.mu.Lock()
		defer c.mu.Unlock()
		target := c.j.Mark()
		c.finishLocked(target, c.j.Flush())
		return c.outcomeLocked(lo, hi)
	}
	var start time.Time
	if c.m != nil {
		start = time.Now()
	}
	c.mu.Lock()
	if hi > c.want {
		c.want = hi
		c.cond.Broadcast()
	}
	for c.resolved.Tau < hi && !c.closed {
		c.cond.Wait()
	}
	err := c.outcomeLocked(lo, hi)
	c.mu.Unlock()
	if c.m != nil {
		c.m.commitWaitSecs.Observe(time.Since(start).Seconds())
	}
	return err
}

func (c *committer) outcomeLocked(lo, hi float64) error {
	for _, r := range c.failed {
		if lo <= r.hi && hi > r.lo {
			return r.err
		}
	}
	if hi <= c.synced {
		return nil
	}
	return errCommitterClosed
}

// shutdown wakes the committer for a final drain (one last fsync if
// waiters are pending) and blocks until the loop exits. Called by
// Store.Close before closing the journal.
func (c *committer) shutdown() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	<-c.done
}
