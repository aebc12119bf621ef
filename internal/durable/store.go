// Package durable is the crash-safe persistence layer: it manages, per
// database, a {snapshot, journal} pair under a manifest, with an
// atomic checkpoint protocol and a recovery path that tolerates every
// state a crash can leave behind.
//
// The paper's update model (Definition 3) is what makes this simple:
// the database is fully determined by its chronological update
// sequence, so the journal of applied updates IS the persistent
// artifact, and a snapshot is merely a replay accelerator. Recovery is
// "load the newest durable snapshot, replay every journal entry after
// it"; the chronology check makes replay idempotent over entries the
// snapshot already contains, so the protocol never needs an exact
// snapshot/journal boundary — only an ordering guarantee.
//
// On-disk layout of one store directory:
//
//	MANIFEST            {"version":1,"seq":k,"snapshot":"snap-...","journal":"wal-...","dim":d,"tau0":t}
//	snap-0000007.json   mod.SaveJSON snapshot (absent while seq==1 with no checkpoint yet)
//	wal-0000007.jsonl   journal segment: one JSON line per applied update
//
// Checkpoint protocol (see DESIGN.md "Durability & recovery" for the
// crash matrix):
//
//  1. create wal-(k+1), fsync the directory        (segment durable, empty)
//  2. swap the live journal onto wal-(k+1)         (old segment flushed+fsynced)
//  3. snapshot the database                        (after the swap — see below)
//  4. write snap-(k+1) via tmp+fsync+rename        (atomic)
//  5. write MANIFEST via tmp+fsync+rename          (the commit point)
//  6. delete wal-k, snap-k                         (garbage collection)
//
// The swap-before-snapshot order is the correctness crux: every update
// applied after the swap lands in wal-(k+1), so the new pair
// {snap-(k+1), wal-(k+1)} misses nothing (updates in both are
// deduplicated by chronology on replay). A crash before step 5 leaves
// the old manifest pointing at the old pair, and recovery additionally
// replays any orphaned newer segments, so updates journaled between
// steps 2 and 5 survive too. A crash after step 5 merely leaves
// garbage for the next open to collect.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mod"
	"repro/internal/vfs"
)

// manifestName is the per-store manifest file.
const manifestName = "MANIFEST"

// storeManifest is the wire form of a store's manifest.
type storeManifest struct {
	Version  int    `json:"version"`
	Seq      uint64 `json:"seq"`
	Snapshot string `json:"snapshot,omitempty"`
	Journal  string `json:"journal"`
	Dim      int    `json:"dim"`
	// Tau0 is omitted when it is -Inf (the common "accept any first
	// update" seed): JSON cannot represent -Inf, and encoding it used to
	// make initFresh fail for exactly that seed. Absent means -Inf.
	Tau0 *float64 `json:"tau0,omitempty"`
}

// tau0Of reads the manifest's initial time, resolving the omitted-field
// sentinel.
func (m storeManifest) tau0Of() float64 {
	if m.Tau0 == nil {
		return math.Inf(-1)
	}
	return *m.Tau0
}

// tau0Ptr builds the manifest form of an initial time.
func tau0Ptr(t float64) *float64 {
	if math.IsInf(t, -1) {
		return nil
	}
	return &t
}

// Format selects the codec of newly written journal segments and
// snapshots. Either format is always READ correctly — recovery detects
// each file's codec from its name, so stores migrate segment by
// segment: reopening a JSON store with the binary format keeps
// appending JSON to the recovered tail segment and switches to binary
// at the next rotation.
type Format int

const (
	// FormatBinary is the compact raw-bits codec (mod.SaveBinary /
	// binary journal records): every float round-trips bit-exactly,
	// including the ±Inf values JSON rejects, and records carry CRCs.
	// The default.
	FormatBinary Format = iota
	// FormatJSON is the legacy human-readable codec (mod.SaveJSON /
	// JSON-lines journal).
	FormatJSON
)

func walName(seq uint64, f Format) string {
	if f == FormatJSON {
		return fmt.Sprintf("wal-%07d.jsonl", seq)
	}
	return fmt.Sprintf("wal-%07d.wal", seq)
}

func snapName(seq uint64, f Format) string {
	if f == FormatJSON {
		return fmt.Sprintf("snap-%07d.json", seq)
	}
	return fmt.Sprintf("snap-%07d.bin", seq)
}

// isBinaryName reports whether a wal/snap file name carries the binary
// codec, by suffix.
func isBinaryName(name string) bool {
	return strings.HasSuffix(name, ".wal") || strings.HasSuffix(name, ".bin")
}

// parseSeq extracts the sequence number of a wal-/snap- file name, or
// ok=false for anything else (tmp files, the manifest, foreign files).
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// StoreOptions parametrize a store.
type StoreOptions struct {
	// Dim and Tau0 configure a fresh database when the directory is
	// empty; for an existing store Dim (when non-zero) is validated
	// against the manifest.
	Dim  int
	Tau0 float64
	// NoFlushEach disables the per-update journal flush. The default
	// (flush after every applied update) bounds data loss on a process
	// crash to the single in-flight entry; disabling trades that for
	// update throughput (the loss bound becomes the bufio buffer).
	// Shorthand for Commit: CommitNone; ignored when Commit is set.
	NoFlushEach bool
	// Commit selects the durability policy of the update path (see
	// CommitPolicy). The zero value is CommitFlushEach, unless
	// NoFlushEach selects CommitNone.
	Commit CommitPolicy
	// CommitInterval is CommitGroup's coalescing window: how long the
	// committer waits before each fsync so concurrent appliers can join
	// the batch. 0 means no artificial wait — entries arriving during an
	// fsync still ride the next one, which is usually batching enough.
	CommitInterval time.Duration
	// CommitMaxBatch skips the coalescing window once this many entries
	// are already waiting; 0 means a default (256).
	CommitMaxBatch int
	// Format selects the codec for new journal segments and snapshots;
	// the zero value is FormatBinary. Existing files are read by their
	// own codec regardless.
	Format Format

	// commitMetrics, when non-nil, receives the group-commit series
	// (set by the engine, which owns the registry).
	commitMetrics *engineMetrics
}

// policy resolves the effective commit policy.
func (o StoreOptions) policy() CommitPolicy {
	if o.Commit == CommitFlushEach && o.NoFlushEach {
		return CommitNone
	}
	return o.Commit
}

// RecoveryInfo reports what opening a store did.
type RecoveryInfo struct {
	// SnapshotLoaded is true when a snapshot file was restored (false
	// for a fresh store or a store that never checkpointed).
	SnapshotLoaded bool
	// Segments is the number of journal segments replayed.
	Segments int
	// Replay aggregates the per-segment tolerant-replay stats.
	Replay mod.ReplayStats
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// CheckpointInfo reports one completed checkpoint.
type CheckpointInfo struct {
	// Seq is the new manifest sequence number.
	Seq uint64
	// SnapshotBytes is the size of the written snapshot.
	SnapshotBytes int
	// Duration is the wall-clock checkpoint time.
	Duration time.Duration
}

// Store manages the durable {snapshot, journal} pair of one mod.DB. It
// is safe for concurrent use: updates flow through the database's own
// locking into the journal, and checkpoints serialize on the store's
// mutex while updates continue. The store mutex is never held while
// writing an entry — the journal writes straight to the current segment
// file under its own lock, and rotation redirects it via SwapWriter —
// so checkpointing never blocks the update path beyond the one flush
// inside the swap.
type Store struct {
	fs  vfs.FS
	dir string
	db  *mod.DB
	j   *mod.Journal

	mu          sync.Mutex
	jfile       vfs.File // current segment's handle (journal writes to it)
	manifestSeq uint64   // seq the on-disk manifest commits to
	walSeq      uint64   // seq of the segment the live journal writes
	walBinary   bool     // codec of the live segment (may lag opts.Format until rotation)
	snapBytes   int      // size of the last snapshot written: pre-sizes the next one's buffer
	closed      bool

	c *committer // non-nil iff the policy is CommitGroup

	opts     StoreOptions
	recovery RecoveryInfo
}

// OpenStore opens (creating or recovering) the store in dir and
// returns it with a live, journaled database: every update applied to
// DB() from now on is appended to the current journal segment. Recovery
// loads the manifest's snapshot, then replays the manifest's journal
// segment and any orphaned newer segments in order, tolerating a torn
// tail (which is truncated away so the segment is appendable again).
func OpenStore(fsys vfs.FS, dir string, opts StoreOptions) (*Store, error) {
	return openStore(fsys, dir, opts, nil)
}

// openStoreWithDB lays out a brand-new store in dir that adopts db as
// its live database (the re-shard path: the engine partitions a merged
// database and persists each part into a fresh store). The directory
// must not already hold a store. Callers should checkpoint promptly:
// until then the adopted state exists only in memory — the fresh
// journal records subsequent updates, not the adopted history.
func openStoreWithDB(fsys vfs.FS, dir string, db *mod.DB, opts StoreOptions) (*Store, error) {
	if db == nil {
		return nil, errors.New("durable: openStoreWithDB needs a database")
	}
	return openStore(fsys, dir, opts, db)
}

func openStore(fsys vfs.FS, dir string, opts StoreOptions, adopt *mod.DB) (*Store, error) {
	start := time.Now()
	if fsys == nil {
		fsys = vfs.OS{}
	}
	s := &Store{fs: fsys, dir: dir, opts: opts}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: mkdir %s: %w", dir, err)
	}
	man, err := readStoreManifest(fsys, path.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		if adopt != nil {
			s.db = adopt
			s.opts.Dim = adopt.Dim()
		}
		if err := s.initFresh(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	case adopt != nil:
		return nil, fmt.Errorf("durable: %s already holds a store", dir)
	default:
		if err := s.recover(man); err != nil {
			return nil, err
		}
	}
	// Journal every subsequently applied update. The per-update listener
	// depends on the commit policy: flush each (bound loss to one entry
	// on process crash), fsync each (full durability, one fsync per
	// update), nothing (CommitNone and CommitGroup — the latter fsyncs
	// from the committer goroutine instead). Listener order (encode,
	// then flush/sync) is guaranteed by registration order, and
	// application order by the database's notification serialization.
	// The journal writes to the segment file directly; checkpoint
	// rotation redirects it with SwapWriter/Rotate. The journal's record
	// format follows the live segment's codec — for a recovered legacy
	// JSON tail that means JSON until the next rotation switches it.
	if s.walBinary {
		s.j = mod.NewJournalBinary(s.db, s.jfile)
	} else {
		s.j = mod.NewJournal(s.db, s.jfile)
	}
	switch opts.policy() {
	case CommitFlushEach:
		//modlint:allow syncorder -- listener must not block updates; a sticky journal error is surfaced by WaitDurable/JournalErr
		s.db.OnUpdate(func(mod.Update) { _ = s.j.Flush() })
	case CommitSyncEach:
		//modlint:allow syncorder -- listener must not block updates; a sticky journal error is surfaced by WaitDurable/JournalErr
		s.db.OnUpdate(func(mod.Update) { _ = s.j.Sync() })
	case CommitGroup:
		s.c = newCommitter(s.j, opts.CommitInterval, opts.CommitMaxBatch, opts.commitMetrics)
	}
	s.recovery.Duration = time.Since(start)
	s.gc()
	return s, nil
}

// initFresh lays out a brand-new store: an empty first journal segment,
// then the manifest committing to it. Crash between the two steps
// leaves a manifest-less directory that the next open re-initializes.
func (s *Store) initFresh() error {
	dim := s.opts.Dim
	if dim <= 0 {
		return fmt.Errorf("durable: fresh store %s needs a positive dimension, got %d", s.dir, dim)
	}
	if math.IsNaN(s.opts.Tau0) || math.IsInf(s.opts.Tau0, 1) {
		return fmt.Errorf("durable: fresh store %s: initial time %g is not representable", s.dir, s.opts.Tau0)
	}
	if s.db == nil {
		s.db = mod.NewDB(dim, s.opts.Tau0)
	}
	jname := walName(1, s.opts.Format)
	f, err := s.fs.Create(path.Join(s.dir, jname))
	if err != nil {
		return fmt.Errorf("durable: create journal: %w", err)
	}
	if s.opts.Format == FormatBinary {
		// The segment header goes in before any entry can arrive (the
		// journal is wired up only after initFresh returns). A crash
		// leaving it partial is handled on recovery: a tail torn inside
		// the header truncates to zero and the header is rewritten.
		if _, err := f.Write(mod.BinaryJournalHeader()); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: write journal header: %w", err)
		}
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	man := storeManifest{Version: 1, Seq: 1, Journal: jname, Dim: dim, Tau0: tau0Ptr(s.opts.Tau0)}
	if err := writeStoreManifest(s.fs, path.Join(s.dir, manifestName), man); err != nil {
		_ = f.Close()
		return err
	}
	s.jfile = f
	s.manifestSeq = 1
	s.walSeq = 1
	s.walBinary = s.opts.Format == FormatBinary
	return nil
}

// recover restores the database named by the manifest: snapshot, then
// the manifest's segment and every orphaned newer segment in sequence
// order, each replayed tolerantly. The final segment is truncated past
// its last complete entry and reopened for appending.
func (s *Store) recover(man storeManifest) error {
	if man.Version != 1 {
		return fmt.Errorf("durable: %s: unsupported manifest version %d", s.dir, man.Version)
	}
	if s.opts.Dim != 0 && s.opts.Dim != man.Dim {
		return fmt.Errorf("durable: %s holds a %d-D database, want %d-D", s.dir, man.Dim, s.opts.Dim)
	}
	if man.Snapshot != "" {
		r, err := s.fs.Open(path.Join(s.dir, man.Snapshot))
		if err != nil {
			return fmt.Errorf("durable: open snapshot: %w", err)
		}
		var db *mod.DB
		var lerr error
		if isBinaryName(man.Snapshot) {
			db, lerr = mod.LoadBinary(r)
		} else {
			db, lerr = mod.LoadJSON(r)
		}
		cerr := r.Close()
		if lerr != nil {
			return fmt.Errorf("durable: snapshot %s: %w", man.Snapshot, lerr)
		}
		if cerr != nil {
			return cerr
		}
		if db.Dim() != man.Dim {
			return fmt.Errorf("durable: snapshot %s is %d-D, manifest says %d-D", man.Snapshot, db.Dim(), man.Dim)
		}
		s.db = db
		s.recovery.SnapshotLoaded = true
	} else {
		s.db = mod.NewDB(man.Dim, man.tau0Of())
	}
	segs, err := s.segmentsFrom(man.Seq)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		// The manifest's segment is created (and the directory synced)
		// before the manifest commits to it, so this is reachable only
		// by outside interference; heal by recreating the segment the
		// manifest names, in that name's codec.
		segs = []walSegment{{seq: man.Seq, name: man.Journal}}
		f, cerr := s.fs.Create(path.Join(s.dir, man.Journal))
		if cerr != nil {
			return fmt.Errorf("durable: recreate journal: %w", cerr)
		}
		if isBinaryName(man.Journal) {
			if _, werr := f.Write(mod.BinaryJournalHeader()); werr != nil {
				_ = f.Close()
				return fmt.Errorf("durable: write journal header: %w", werr)
			}
		}
		_ = f.Close()
	}
	for i, seg := range segs {
		bin := isBinaryName(seg.name)
		r, oerr := s.fs.Open(path.Join(s.dir, seg.name))
		if errors.Is(oerr, os.ErrNotExist) && i > 0 {
			continue // gap beyond the manifest segment: nothing to replay
		}
		if oerr != nil {
			return fmt.Errorf("durable: open journal %s: %w", seg.name, oerr)
		}
		var st mod.ReplayStats
		var rerr error
		if bin {
			st, rerr = mod.ReplayTolerantBinary(s.db, r)
		} else {
			st, rerr = mod.ReplayTolerant(s.db, r)
		}
		_ = r.Close()
		if rerr != nil {
			return fmt.Errorf("durable: replay %s: %w", seg.name, rerr)
		}
		s.recovery.Segments++
		s.recovery.Replay.Applied += st.Applied
		s.recovery.Replay.Skipped += st.Skipped
		if st.TornTail {
			s.recovery.Replay.TornTail = true
			s.recovery.Replay.TailBytes += st.TailBytes
		}
		if i == len(segs)-1 {
			if st.TornTail {
				if terr := s.fs.Truncate(path.Join(s.dir, seg.name), st.GoodBytes); terr != nil {
					return fmt.Errorf("durable: truncate torn tail of %s: %w", seg.name, terr)
				}
			}
			f, aerr := s.fs.Append(path.Join(s.dir, seg.name))
			if aerr != nil {
				return fmt.Errorf("durable: reopen journal %s: %w", seg.name, aerr)
			}
			if bin && st.GoodBytes == 0 {
				// The crash happened before (or inside) the segment's
				// 5-byte header: the file is empty now (any torn header
				// bytes were truncated above), so write the header the
				// appended records need.
				if _, werr := f.Write(mod.BinaryJournalHeader()); werr != nil {
					_ = f.Close()
					return fmt.Errorf("durable: rewrite journal header: %w", werr)
				}
			}
			s.jfile = f
			s.walSeq = seg.seq
			s.walBinary = bin
		}
	}
	s.manifestSeq = man.Seq
	return nil
}

// walSegment names one on-disk journal segment; the name's suffix
// carries its codec.
type walSegment struct {
	seq  uint64
	name string
}

// segmentsFrom lists existing journal segments with seq >= from,
// ascending, across both codecs. The same seq in both codecs cannot
// arise from any crash of this code (a segment is created in exactly
// one codec and seqs only grow), so it is outside interference and an
// error.
func (s *Store) segmentsFrom(from uint64) ([]walSegment, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list %s: %w", s.dir, err)
	}
	var segs []walSegment
	seen := make(map[uint64]string)
	for _, n := range names {
		seq, ok := parseSeq(n, "wal-", ".jsonl")
		if !ok {
			seq, ok = parseSeq(n, "wal-", ".wal")
		}
		if !ok || seq < from {
			continue
		}
		if prev, dup := seen[seq]; dup {
			return nil, fmt.Errorf("durable: journal segment %d exists as both %s and %s", seq, prev, n)
		}
		seen[seq] = n
		segs = append(segs, walSegment{seq: seq, name: n})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// DB returns the live database. Updates applied to it are journaled.
func (s *Store) DB() *mod.DB { return s.db }

// Recovery reports what opening this store did.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Seq returns the on-disk manifest sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifestSeq
}

// JournalErr surfaces the live journal's sticky write error, if any —
// non-nil means updates applied since the error are NOT durable and a
// checkpoint (which supersedes the journal with a snapshot) is the way
// to restore durability.
func (s *Store) JournalErr() error { return s.j.Err() }

// Checkpoint runs the atomic checkpoint protocol described in the
// package comment: rotate the journal onto a fresh segment, snapshot
// the database, persist the snapshot atomically, commit the new
// {snapshot, journal} pair in the manifest, then collect the old pair.
// Updates may continue concurrently throughout. On error the store is
// still consistent and still journaling; the manifest commits to the
// old pair until the new one is fully durable.
func (s *Store) Checkpoint() (CheckpointInfo, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CheckpointInfo{}, errors.New("durable: store closed")
	}
	newSeq := s.walSeq + 1
	binary := s.opts.Format == FormatBinary
	newWal := walName(newSeq, s.opts.Format)

	// 1. Fresh segment, durable before any entry can land in it. A
	// binary segment gets its header now, while the live journal still
	// writes to the old segment — no entry can interleave before it.
	f, err := s.fs.Create(path.Join(s.dir, newWal))
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: create segment: %w", err)
	}
	if binary {
		if _, err := f.Write(mod.BinaryJournalHeader()); err != nil {
			_ = f.Close()
			_ = s.fs.Remove(path.Join(s.dir, newWal))
			return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: write segment header: %w", err)
		}
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(path.Join(s.dir, newWal))
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: sync dir: %w", err)
	}

	// 2. Redirect the live journal. From here on every new entry goes
	// to wal-newSeq; the old segment is flushed and fsynced. A flush
	// error on the old segment is swallowed deliberately: entries it
	// may have lost were applied before the swap and are therefore in
	// the snapshot taken next. Under group commit the rotation also
	// resolves every waiter whose entry the old segment's final fsync
	// covered (with its outcome — a failure is never acked, even though
	// the snapshot below would persist those entries, because a crash
	// before the manifest commit would lose them).
	old := s.jfile
	if s.c != nil {
		_ = s.c.rotate(f, binary) //modlint:allow syncorder -- old-segment flush loss is covered by the snapshot taken next; waiters get the outcome via resolve
	} else {
		_, _ = s.j.RotateBinary(f, binary) //modlint:allow syncorder -- old-segment flush loss is covered by the snapshot taken next
	}
	s.jfile = f
	s.walSeq = newSeq
	s.walBinary = binary
	if old != nil {
		_ = old.Close()
	}

	// 3+4. Snapshot after the swap, persist atomically. The epoch
	// snapshot is immutable and taken without the database lock, and it
	// still covers the old segment: mod.DB bumps its epoch under its
	// write lock before it notifies the journal listener, so every entry
	// that reached the old segment before the swap above had already
	// moved the epoch, and EpochSnapshot never returns a view older than
	// the current epoch. Entries applied but not yet journaled land in
	// the new segment; replay deduplicates those the snapshot also has.
	var buf bytes.Buffer
	buf.Grow(s.snapBytes + s.snapBytes/8)
	snap := s.db.EpochSnapshot()
	var encErr error
	if binary {
		encErr = snap.SaveBinary(&buf)
	} else {
		encErr = snap.SaveJSON(&buf)
	}
	if encErr != nil {
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: encode snapshot: %w", encErr)
	}
	s.snapBytes = buf.Len()
	newSnap := snapName(newSeq, s.opts.Format)
	if err := vfs.WriteFileAtomic(s.fs, path.Join(s.dir, newSnap), buf.Bytes()); err != nil {
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: write snapshot: %w", err)
	}

	// 5. Commit.
	man := storeManifest{
		Version: 1, Seq: newSeq,
		Snapshot: newSnap, Journal: newWal,
		Dim: s.db.Dim(), Tau0: tau0Ptr(s.opts.Tau0),
	}
	if err := writeStoreManifest(s.fs, path.Join(s.dir, manifestName), man); err != nil {
		return CheckpointInfo{}, err
	}
	s.manifestSeq = newSeq

	// 6. Collect the superseded pair (best-effort; recovery GCs too).
	s.gcLocked()
	return CheckpointInfo{Seq: newSeq, SnapshotBytes: buf.Len(), Duration: time.Since(start)}, nil
}

// Sync flushes and fsyncs the live journal — the strong-durability
// barrier between checkpoints.
func (s *Store) Sync() error { return s.j.Sync() }

// WaitDurable blocks until every journal entry buffered before the call
// is durable under the store's commit policy, returning nil exactly
// when it is. Under CommitGroup this is the ack point: Apply, then
// WaitDurable; a nil return means the fsync covering the caller's
// entries succeeded. Under the per-update policies the journal's
// listener already did the per-entry work, so only the sticky error is
// surfaced (nil under CommitNone means "accepted", not "on disk" —
// that policy explicitly waives per-update durability).
func (s *Store) WaitDurable() error {
	if err := s.j.Err(); err != nil {
		return err
	}
	if s.c == nil {
		return nil
	}
	return s.c.waitFor(s.j.Seq())
}

// Close flushes and fsyncs the journal and closes the segment file.
// The store's database remains readable; further updates are no longer
// journaled (the journal rejects them once closed).
func (s *Store) Close() error {
	if s.c != nil {
		s.c.shutdown() // final drain: one last fsync for pending waiters
	}
	cerr := s.j.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return cerr
	}
	s.closed = true
	if s.jfile != nil {
		if err := s.jfile.Close(); err != nil && cerr == nil {
			cerr = err
		}
		s.jfile = nil
	}
	if errors.Is(cerr, mod.ErrJournalClosed) {
		cerr = nil
	}
	return cerr
}

// gc removes files the manifest no longer references: older segments
// and snapshots, orphaned newer snapshots, leftover temp files. Errors
// are ignored — garbage is re-collectable on the next open.
func (s *Store) gc() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
}

func (s *Store) gcLocked() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	man, err := readStoreManifest(s.fs, path.Join(s.dir, manifestName))
	if err != nil {
		return
	}
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".tmp"):
			_ = s.fs.Remove(path.Join(s.dir, n))
		case n == man.Snapshot || n == man.Journal || n == manifestName:
			// live
		default:
			seq, isWal := parseSeq(n, "wal-", ".jsonl")
			if !isWal {
				seq, isWal = parseSeq(n, "wal-", ".wal")
			}
			if isWal {
				// Newer segments than the manifest's hold updates the
				// manifest pair does not cover — never collect those.
				if seq < man.Seq {
					_ = s.fs.Remove(path.Join(s.dir, n))
				}
				continue
			}
			_, isSnap := parseSeq(n, "snap-", ".json")
			if !isSnap {
				_, isSnap = parseSeq(n, "snap-", ".bin")
			}
			if isSnap {
				// Snapshots other than the manifest's are either
				// superseded or orphans of a failed checkpoint; the
				// manifest pair plus newer segments re-derive them.
				_ = s.fs.Remove(path.Join(s.dir, n))
			}
		}
	}
}

// readStoreManifest loads and decodes a manifest.
func readStoreManifest(fsys vfs.FS, p string) (storeManifest, error) {
	data, err := vfs.ReadFile(fsys, p)
	if err != nil {
		return storeManifest{}, err
	}
	var man storeManifest
	if err := unmarshalStrict(data, &man); err != nil {
		return storeManifest{}, fmt.Errorf("durable: manifest %s: %w", p, err)
	}
	return man, nil
}

// writeStoreManifest encodes and atomically persists a manifest.
func writeStoreManifest(fsys vfs.FS, p string, man storeManifest) error {
	data, err := marshalLine(man)
	if err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(fsys, p, data); err != nil {
		return fmt.Errorf("durable: write manifest: %w", err)
	}
	return nil
}

// unmarshalStrict decodes JSON rejecting unknown fields — a manifest
// with fields this version doesn't know is a manifest it must not
// half-understand.
func unmarshalStrict(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// marshalLine encodes v as one newline-terminated JSON line.
func marshalLine(v interface{}) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
