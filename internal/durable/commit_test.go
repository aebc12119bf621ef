package durable_test

// Ack tests: the ack contract of both commit policies (no Apply or
// ApplyBatch returns nil before its entries are durable, and a journal
// fault is an error, not a silent loss), and fsync coalescing under
// group commit. The crash matrices over both policies are in
// crash_matrix_test.go.

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/vfs"
)

// countFS wraps a vfs.FS counting file fsyncs — the denominator of the
// coalescing ratio.
type countFS struct {
	vfs.FS
	syncs atomic.Int64
}

func (c *countFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Append(name string) (vfs.File, error) {
	f, err := c.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
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

// groupConfig is matrixConfig with group commit enabled.
func groupConfig(fs vfs.FS) durable.Config {
	cfg := matrixConfig(fs)
	cfg.Commit = durable.CommitGroup
	return cfg
}

// TestGroupCommitConcurrentAck drives concurrent appliers (one per
// shard partition — the chronology discipline forces serialization
// within a shard) through group commit and asserts the ack contract:
// every Apply that returned nil is durable, so a clean reopen must
// recover all of them. Run under -race this exercises the
// committer/waiter synchronization from many goroutines at once.
func TestGroupCommitConcurrentAck(t *testing.T) {
	const n = 200
	dir := filepath.Join(t.TempDir(), "data")
	cfg := groupConfig(vfs.OS{})
	cfg.Shards = 4
	eng, err := durable.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Partition the stream by owning shard; each partition is a
	// chronological subsequence, so one goroutine per partition is the
	// maximum concurrency the stream discipline allows for Apply.
	us := newStream(n)
	groups := make([][]mod.Update, eng.NumShards())
	for _, u := range us {
		i := eng.ShardOf(u.O)
		groups[i] = append(groups[i], u)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g []mod.Update) {
			defer wg.Done()
			for _, u := range g {
				if err := eng.Apply(u); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Every ack was a durability promise: a clean reopen must see all n.
	rcfg := matrixConfig(vfs.OS{})
	rcfg.Shards = 4
	rec, err := durable.Open(dir, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != n {
		t.Fatalf("recovered %d of %d acked updates", rec.Len(), n)
	}
}

// TestGroupCommitBatchCoalescing asserts the fsync economics that
// justify the committer: ingesting n updates through ApplyBatch must
// cost far fewer fsyncs than n, because each batch buffers its whole
// per-shard group in the journal before a single covering fsync acks
// it. (A sequential Apply stream cannot coalesce — each ack gates the
// next apply — so the batch path is where the ratio shows up.)
func TestGroupCommitBatchCoalescing(t *testing.T) {
	const n, batch = 200, 50
	dir := filepath.Join(t.TempDir(), "data")
	cfs := &countFS{FS: vfs.OS{}}
	eng, err := durable.Open(dir, groupConfig(cfs))
	if err != nil {
		t.Fatal(err)
	}
	us := newStream(n)
	base := cfs.syncs.Load()
	for lo := 0; lo < n; lo += batch {
		if _, err := eng.ApplyBatch(us[lo : lo+batch]); err != nil {
			t.Fatalf("batch at %d: %v", lo, err)
		}
	}
	syncs := cfs.syncs.Load() - base
	// Expect about one fsync per shard per batch: 2*4 = 8. Allow 4x
	// slack for committer-cycle races; n/4 still proves >=4x coalescing.
	if syncs > n/4 {
		t.Fatalf("batched ingest of %d updates issued %d fsyncs — not coalescing", n, syncs)
	}
	t.Logf("%d updates acked with %d fsyncs (%.1f entries/fsync)",
		n, syncs, float64(n)/float64(syncs))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := durable.Open(dir, matrixConfig(vfs.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != n {
		t.Fatalf("recovered %d of %d acked updates", rec.Len(), n)
	}
}

// TestGroupCommitCloseDrains pins the committer's drain: a Close with
// pending waiters must resolve them (one final fsync), and updates
// applied before Close must survive.
func TestGroupCommitCloseDrains(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	eng, err := durable.Open(dir, groupConfig(vfs.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	us := newStream(8)
	if n, err := eng.ApplyBatch(us); err != nil || n != len(us) {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.Open(dir, matrixConfig(vfs.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != len(us) {
		t.Fatalf("recovered %d of %d", rec.Len(), len(us))
	}
}

// TestFlushAckSurfacesJournalFault: under CommitFlush the ack is the
// journal's flush, so a failed first write to the journal segment is
// Apply's error, and a reopen recovers exactly the updates whose Apply
// returned nil.
func TestFlushAckSurfacesJournalFault(t *testing.T) {
	us := stream10()[:3]
	cfg := durable.Config{Shards: 1, Dim: 2, Tau0: -1}

	// Every operation Open makes precedes the first journal write.
	probe := errfs.New(vfs.OS{}, 0, errfs.FailOp)
	cfg.FS = probe
	eng, err := durable.Open(filepath.Join(t.TempDir(), "probe"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opens := probe.Ops()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "data")
	inj := errfs.New(vfs.OS{}, opens+1, errfs.FailOp)
	cfg.FS = inj
	eng, err = durable.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i, u := range us {
		err := eng.Apply(u)
		if i == 0 && !errors.Is(err, mod.ErrNotDurable) {
			t.Fatalf("first Apply with the journal write failing returned %v, want mod.ErrNotDurable", err)
		}
		if err == nil {
			acked++
		}
	}
	if tr := inj.Trace(); !strings.HasPrefix(tr[opens], "write(") || !strings.Contains(tr[opens], ".wal, ") {
		t.Fatalf("the fault did not hit a journal write:\n%s", traceOf(inj))
	}
	_ = eng.Close()

	rec, err := durable.Open(dir, durable.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Snapshot().StateEqual(prefixDB(t, us, acked)) {
		t.Fatalf("recovered %d objects at tau %g, want exactly the %d acked updates",
			rec.Len(), rec.Tau(), acked)
	}
}
