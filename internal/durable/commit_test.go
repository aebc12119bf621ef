package durable_test

// Ack tests: the ack contract of both commit policies (no Apply or
// ApplyBatch returns nil before its entries are durable, and a journal
// fault is an error, not a silent loss), and fsync coalescing under
// group commit. The durability driver (driver_test.go) crashes both
// policies.

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/vfs"
)

// syncFS wraps a vfs.FS counting file fsyncs — the denominator of the
// coalescing ratio — and, while hold is set, holding each one: it
// signals held and waits for release.
type syncFS struct {
	vfs.FS
	syncs         atomic.Int64
	hold          atomic.Bool
	held, release chan struct{}
}

func (c *syncFS) Create(name string) (vfs.File, error) { return c.wrap(c.FS.Create(name)) }

func (c *syncFS) Append(name string) (vfs.File, error) { return c.wrap(c.FS.Append(name)) }

func (c *syncFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, fs: c}, nil
}

type syncFile struct {
	vfs.File
	fs *syncFS
}

func (f *syncFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.hold.Load() {
		f.fs.held <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// newStream builds n chronological New updates for distinct objects.
func newStream(n int) []mod.Update {
	us := make([]mod.Update, n)
	for i := range us {
		us[i] = mod.New(mod.OID(i+1), float64(i), geom.Of(1, 0), geom.Of(float64(i), 0))
	}
	return us
}

// TestGroupCommitConcurrentAck drives two appliers per shard at P = 4
// through group commit, on the durability driver without faults, and
// wants every update the database applied recovered after a power
// loss. Run under -race this exercises the committer/waiter
// synchronization from many goroutines at once.
func TestGroupCommitConcurrentAck(t *testing.T) {
	r := newRun(t, drive{shards: 4, writers: 2, commit: durable.CommitGroup}, 1)
	r.cleanLife(r.mem, 4, r.seeded(50))
}

// TestGroupCommitBatchCoalescing asserts the fsync economics that
// justify the committer: ingesting n updates through ApplyBatch must
// cost far fewer fsyncs than n, because each batch buffers its whole
// per-shard group in the journal before a single covering fsync acks
// it. (A sequential Apply stream cannot coalesce — each ack gates the
// next apply — so the batch path is where the ratio shows up.)
func TestGroupCommitBatchCoalescing(t *testing.T) {
	const n, batch = 200, 50
	r := newRun(t, drive{shards: 2, commit: durable.CommitGroup}, 1)
	cfs := &syncFS{FS: r.mem}
	r.cleanLife(cfs, 2, func(eng *durable.Engine) {
		us, base := newStream(n), cfs.syncs.Load()
		for lo := 0; lo < n; lo += batch {
			r.apply(eng, us[lo:lo+batch]...)
		}
		// Expect about one fsync per shard per batch: 2*4 = 8. Allow 4x
		// slack for committer-cycle races; n/4 still proves >=4x
		// coalescing.
		if syncs := cfs.syncs.Load() - base; syncs > n/4 {
			t.Errorf("batched ingest of %d updates issued %d fsyncs — not coalescing", n, syncs)
		} else {
			t.Logf("%d updates acked with %d fsyncs (%.1f entries/fsync)", n, syncs, float64(n)/float64(syncs))
		}
	})
}

// TestGroupCommitAckedBatchSurvivesClose: updates a batch applied and
// had acked before Close survive a power loss after it. (The batch waits
// for its own acks, so no waiter is pending at Close here;
// TestGroupCommitCloseResolvesWaiters closes on one.)
func TestGroupCommitAckedBatchSurvivesClose(t *testing.T) {
	r := newRun(t, drive{shards: 2, commit: durable.CommitGroup}, 1)
	r.cleanLife(r.mem, 2, func(eng *durable.Engine) { r.apply(eng, newStream(8)...) })
}

// TestGroupCommitCloseResolvesWaiters: Close runs while a writer waits
// for its ack. The first update's fsync is held; a second update is
// applied and waits behind it; Close starts; the fsync is released. The
// waiter is resolved — acked by the last fsync of Close's drain, or
// refused with mod.ErrNotDurable when Close reached the committer first
// — and, either way, every update the database applied survives the
// power loss after Close.
func TestGroupCommitCloseResolvesWaiters(t *testing.T) {
	r := newRun(t, drive{shards: 1, commit: durable.CommitGroup}, 1)
	fsys := &syncFS{FS: r.mem, held: make(chan struct{}), release: make(chan struct{})}
	r.cleanLife(fsys, 1, func(eng *durable.Engine) {
		us := newStream(2)
		fsys.hold.Store(true)
		acked := make(chan int, 1)
		go func() { acked <- r.apply(eng, us[0]) }()
		<-fsys.held
		fsys.hold.Store(false)
		waited := make(chan error, 1)
		go func() { waited <- eng.Apply(us[1]) }()
		for !eng.Store(0).DB().Contains(us[1].O) {
			runtime.Gosched()
		}
		closed := make(chan error, 1)
		go func() { closed <- eng.Close() }()
		// Close has no hook to wait on; the pause lets it reach the
		// committer before the fsync returns. Either order resolves the
		// waiter one of the two ways checked below.
		time.Sleep(20 * time.Millisecond)
		syncs := fsys.syncs.Load()
		close(fsys.release)
		<-acked
		switch err := <-waited; {
		case err == nil:
			r.mu.Lock()
			r.acked[us[1].Tau] = true
			r.mu.Unlock()
			t.Logf("the waiter was acked, after %d more fsyncs", fsys.syncs.Load()-syncs)
		case errors.Is(err, mod.ErrNotDurable):
			t.Logf("the waiter was refused: %v", err)
		default:
			t.Errorf("the waiter pending at Close got %v, neither an ack nor mod.ErrNotDurable", err)
		}
		if err := <-closed; err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

// TestFlushAckSurfacesJournalFault: under CommitFlush the ack is the
// journal's flush, so a failed first write to the journal segment is
// Apply's error, and a reopen recovers exactly the updates whose Apply
// returned nil.
func TestFlushAckSurfacesJournalFault(t *testing.T) {
	us := stream10()[:3]
	// Every operation Open makes precedes the first journal write.
	probe := newRun(t, drive{shards: 1}, 1)
	probe.inj = errfs.New(probe.mem, 0, errfs.FailOp)
	opens := probe.inj.Ops()
	_ = probe.open(probe.inj, 1).Close()
	opens = probe.inj.Ops() - opens - 1 // Close fsyncs the journal once

	r := newRun(t, drive{shards: 1}, 1)
	r.inj = errfs.New(r.mem, opens+1, errfs.FailOp)
	r.live(1, func(eng *durable.Engine) {
		if err := eng.Apply(us[0]); !errors.Is(err, mod.ErrNotDurable) {
			t.Errorf("first Apply with the journal write failing returned %v, want mod.ErrNotDurable", err)
		}
		r.apply(eng, us[1])
		r.apply(eng, us[2])
	})
	if op := r.before[opens]; !strings.HasPrefix(op, "write(") || !strings.Contains(op, ".wal, ") {
		t.Fatalf("the fault hit %s, not a journal write", op)
	}
	if r.finish(1); len(r.kept) != 1 {
		t.Fatalf("recovered %d updates, want only the one applied after recovery", len(r.kept))
	}
}

// TestApplyWhileJournalFsyncs: while the group-commit fsync of one
// update is held, another update on the same shard is applied and
// reaches the journal's buffer — the journal's lock is not held across
// the fsync — and once the fsync returns both survive a power loss.
func TestApplyWhileJournalFsyncs(t *testing.T) {
	r := newRun(t, drive{shards: 1, commit: durable.CommitGroup}, 1)
	fsys := &syncFS{FS: r.mem, held: make(chan struct{}), release: make(chan struct{})}
	r.cleanLife(fsys, 1, func(eng *durable.Engine) {
		us := newStream(2)
		fsys.hold.Store(true)
		acked := make(chan int, 1)
		go func() { acked <- r.apply(eng, us[0]) }()
		<-fsys.held
		applied := make(chan error, 1)
		se := eng.Engine
		go func() { applied <- se.Apply(us[1]) }()
		select {
		case err := <-applied:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(2 * time.Second):
			t.Error("an apply on the shard waited for the fsync in flight")
		}
		fsys.hold.Store(false)
		close(fsys.release)
		<-acked
	})
}
