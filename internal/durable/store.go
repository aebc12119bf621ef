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
//	MANIFEST           {"version":1,"seq":k,"snapshot":"snap-...","journal":"wal-...","dim":d,"tau0":t}
//	snap-0000007.bin   mod.SaveBinary snapshot (absent while seq==1 with no checkpoint yet)
//	wal-0000007.wal    journal segment: 5-byte header, then one framed,
//	                   checksummed binary record per applied update
//
// Checkpoint protocol (see DESIGN.md "Durability & recovery" for the
// durability driver that crashes it):
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
// garbage for the next open to collect. If the old segment has failed,
// step 2 runs steps 3-5 before it swaps, and swaps only if they
// succeed (see Checkpoint).
//
// A store this build cannot read is refused at open, before anything is
// written (checkStore): one written before the binary codec
// (snap-N.json, wal-N.jsonl), which a build at or before commit f2b2e8f
// imports into the binary pair the first time it opens it; and one whose
// snapshot is version 1 or 2 (it carried the update log), which a build
// at or before commit dfaf821 rewrites as version 3 at its next
// checkpoint. Opening with such a build is the way to convert either.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

func walName(seq uint64) string  { return fmt.Sprintf("wal-%07d.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%07d.bin", seq) }

// fileKind says what a name in a store directory is.
type fileKind int

const (
	otherFile fileKind = iota // manifest, temp files, foreign files
	walFile
	snapFile
)

// classify recognises the journal-segment and snapshot names a store
// directory can hold and extracts their sequence number.
func classify(name string) (kind fileKind, seq uint64) {
	stem, ext, _ := strings.Cut(name, ".")
	switch {
	case strings.HasPrefix(stem, "wal-") && ext == "wal":
		kind, stem = walFile, stem[len("wal-"):]
	case strings.HasPrefix(stem, "snap-") && ext == "bin":
		kind, stem = snapFile, stem[len("snap-"):]
	default:
		return otherFile, 0
	}
	seq, err := strconv.ParseUint(stem, 10, 64)
	if err != nil {
		return otherFile, 0
	}
	return kind, seq
}

// StoreOptions parametrize a store.
type StoreOptions struct {
	// Dim and Tau0 configure a fresh database when the directory is
	// empty; for an existing store Dim (when non-zero) is validated
	// against the manifest.
	Dim  int
	Tau0 float64
	// Commit selects what WaitDurable waits for (see CommitPolicy). The
	// zero value is CommitFlush.
	Commit CommitPolicy

	// commitMetrics, when non-nil, receives the group-commit series
	// (set by the engine, which owns the registry).
	commitMetrics *engineMetrics
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
// file under its own lock, and rotation redirects it via Journal.Rotate
// — so checkpointing never blocks the update path beyond the one flush
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
	snapBytes   int      // size of the last snapshot written: pre-sizes the next one's buffer
	closed      bool

	c *committer

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
	man, err := readManifest[storeManifest](fsys, path.Join(dir, manifestName))
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
		if err := checkManifest(fsys, dir, man, opts.Dim); err != nil {
			return nil, err
		}
		if err := s.recover(man); err != nil {
			return nil, err
		}
	}
	// Journal every subsequently applied update into the journal's
	// buffer, in application order (the database serializes its
	// listener calls). An entry reaches the segment file when the buffer
	// fills, and at the latest when WaitDurable, a checkpoint or Close
	// flushes it. The journal writes to the segment file directly;
	// checkpoint rotation redirects it with Journal.Rotate.
	s.j = mod.NewJournal(s.db, s.jfile)
	s.c = newCommitter(s.j, opts.Commit == CommitGroup, opts.commitMetrics)
	s.recovery.Duration = time.Since(start)
	s.gcLocked() // the store is not shared yet: nothing to lock out
	return s, nil
}

// createSegment creates journal segment seq and makes it durable while
// it is still empty: file, header, directory entry. No entry can reach
// it before the caller hands it to the journal, so nothing interleaves
// with the header. A crash that leaves the header partial is handled on
// recovery, which starts such a segment over.
func (s *Store) createSegment(seq uint64) (vfs.File, error) {
	p := path.Join(s.dir, walName(seq))
	f, err := s.fs.Create(p)
	if err != nil {
		return nil, fmt.Errorf("create segment: %w", err)
	}
	if _, err = f.Write(mod.BinaryJournalHeader()); err != nil {
		err = fmt.Errorf("write segment header: %w", err)
	} else if err = s.fs.SyncDir(s.dir); err != nil {
		err = fmt.Errorf("sync dir: %w", err)
	}
	if err != nil {
		_ = f.Close()
		_ = s.fs.Remove(p)
		return nil, err
	}
	return f, nil
}

// initFresh lays out a brand-new store: an empty first journal segment,
// then the manifest committing to it, then the directory's own entry.
// Crash between the steps leaves a manifest-less directory that the
// next open re-initializes, or none.
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
	f, err := s.createSegment(1)
	if err != nil {
		return fmt.Errorf("durable: fresh store %s: %w", s.dir, err)
	}
	man := storeManifest{Version: 1, Seq: 1, Journal: walName(1), Dim: dim, Tau0: tau0Ptr(s.opts.Tau0)}
	if err := writeManifest(s.fs, path.Join(s.dir, manifestName), man); err != nil {
		_ = f.Close()
		return err
	}
	// The directory itself may be new: its entry is durable only once
	// its parent is synced, and until then a power loss can take the
	// whole store, acked updates and all.
	if err := s.fs.SyncDir(path.Dir(s.dir)); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: fresh store %s: sync parent: %w", s.dir, err)
	}
	s.jfile = f
	s.manifestSeq = 1
	s.walSeq = 1
	return nil
}

// checkStore refuses the store in dir when this build cannot recover it
// (see checkManifest), reading only its manifest and its snapshot's
// header and writing nothing. A directory without a manifest is a fresh
// store and passes. The engine checks every shard this way before it
// opens any, so a refused Open leaves every file as it was.
func checkStore(fsys vfs.FS, dir string, dim int) error {
	man, err := readManifest[storeManifest](fsys, path.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return checkManifest(fsys, dir, man, dim)
}

// checkManifest refuses a store manifest this build cannot recover
// from: another manifest version or dimension (dim 0 accepts any), file
// names other than snap-N.bin and wal-N.wal (a store the JSON codec
// wrote, which would otherwise find no binary segment and open empty),
// or a snapshot whose 5-byte header mod.CheckSnapshotHeader refuses.
func checkManifest(fsys vfs.FS, dir string, man storeManifest, dim int) error {
	if man.Version != 1 {
		return fmt.Errorf("durable: %s: unsupported manifest version %d", dir, man.Version)
	}
	if dim != 0 && dim != man.Dim {
		return fmt.Errorf("durable: %s holds a %d-D database, want %d-D", dir, man.Dim, dim)
	}
	jk, _ := classify(man.Journal)
	sk := snapFile
	if man.Snapshot != "" {
		sk, _ = classify(man.Snapshot)
	}
	if jk != walFile || sk != snapFile {
		return fmt.Errorf("durable: %s: manifest names snapshot %q and journal %q, but this build reads "+
			"only snap-N.bin and wal-N.wal: a store in the JSON codec converts by opening it once "+
			"with a build at or before commit f2b2e8f", dir, man.Snapshot, man.Journal)
	}
	if man.Snapshot == "" {
		return nil
	}
	r, err := fsys.Open(path.Join(dir, man.Snapshot))
	if err != nil {
		return fmt.Errorf("durable: open snapshot: %w", err)
	}
	hdr := make([]byte, mod.BinaryJournalHeaderLen)
	_, err = io.ReadFull(r, hdr)
	_ = r.Close()
	if err == nil {
		err = mod.CheckSnapshotHeader(hdr)
	}
	if err != nil {
		return fmt.Errorf("durable: %s: snapshot %s: %w", dir, man.Snapshot, err)
	}
	return nil
}

// recover restores the database named by the manifest, which
// checkManifest passed: snapshot, then the manifest's segment and every
// orphaned newer segment in sequence order, each replayed tolerantly.
// The final segment is truncated past its last complete entry and
// reopened for appending.
func (s *Store) recover(man storeManifest) error {
	if man.Snapshot != "" {
		r, err := s.fs.Open(path.Join(s.dir, man.Snapshot))
		if err != nil {
			return fmt.Errorf("durable: open snapshot: %w", err)
		}
		db, lerr := mod.LoadBinary(r)
		cerr := r.Close()
		if lerr != nil {
			return fmt.Errorf("durable: snapshot %s: %w", path.Join(s.dir, man.Snapshot), lerr)
		}
		if cerr != nil {
			return cerr
		}
		if db.Dim() != man.Dim {
			return fmt.Errorf("durable: snapshot %s is %d-D, manifest says %d-D", path.Join(s.dir, man.Snapshot), db.Dim(), man.Dim)
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
	var tail walSegment // the last segment replayed
	var tailStats mod.ReplayStats
	for i, seg := range segs {
		r, oerr := s.fs.Open(path.Join(s.dir, seg.name))
		if errors.Is(oerr, os.ErrNotExist) && i > 0 {
			continue // gap beyond the manifest segment: nothing to replay
		}
		if oerr != nil {
			return fmt.Errorf("durable: open journal %s: %w", seg.name, oerr)
		}
		st, rerr := mod.ReplayTolerantBinary(s.db, r)
		_ = r.Close()
		if rerr != nil {
			return fmt.Errorf("durable: replay %s: %w", path.Join(s.dir, seg.name), rerr)
		}
		s.recovery.Segments++
		s.recovery.Replay.Applied += st.Applied
		s.recovery.Replay.Skipped += st.Skipped
		if st.TornTail {
			s.recovery.Replay.TornTail = true
			s.recovery.Replay.TailBytes += st.TailBytes
		}
		tail, tailStats = seg, st
	}
	s.manifestSeq = man.Seq
	// The live journal goes on the last segment replayed when it has at
	// least its header intact. Otherwise a segment is created: in place
	// of a segment whose crash came before or inside the header; or, no
	// segment found at all, in place of the manifest's — created and
	// synced before the manifest committed to it, so that is reachable
	// only by outside interference.
	s.walSeq = max(man.Seq, tail.seq)
	if tailStats.GoodBytes > 0 {
		p := path.Join(s.dir, tail.name)
		if tailStats.TornTail {
			if err := s.fs.Truncate(p, tailStats.GoodBytes); err != nil {
				return fmt.Errorf("durable: truncate torn tail of %s: %w", tail.name, err)
			}
		}
		if s.jfile, err = s.fs.Append(p); err != nil {
			return fmt.Errorf("durable: reopen journal %s: %w", tail.name, err)
		}
		return nil
	}
	if s.jfile, err = s.createSegment(s.walSeq); err != nil {
		return fmt.Errorf("durable: recover %s: %w", s.dir, err)
	}
	return nil
}

// walSegment names one on-disk journal segment.
type walSegment struct {
	seq  uint64
	name string
}

// segmentsFrom lists existing journal segments with seq >= from,
// ascending.
func (s *Store) segmentsFrom(from uint64) ([]walSegment, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list %s: %w", s.dir, err)
	}
	var segs []walSegment
	for _, n := range names {
		if kind, seq := classify(n); kind == walFile && seq >= from {
			segs = append(segs, walSegment{seq: seq, name: n})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// DB returns the live database. Updates applied to it are journaled;
// one is acknowledged once WaitDurable returns nil after it.
func (s *Store) DB() *mod.DB { return s.db }

// Recovery reports what opening this store did.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Seq returns the on-disk manifest sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifestSeq
}

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

	// 1. Fresh segment, durable before any entry can land in it; the
	// live journal still writes to the old one.
	f, err := s.createSegment(newSeq)
	if err != nil {
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: %w", err)
	}

	// 2. Redirect the live journal. From here on every new entry goes
	// to wal-newSeq; the old segment is flushed and fsynced. The
	// rotation also resolves every entry the old segment held with that
	// outcome — a failure is never acked, even though the snapshot
	// below persists those entries, because a crash before the manifest
	// commit would lose them. If the old segment failed (now, or at an
	// earlier flush or fsync), entries are missing from it, and the
	// rotation runs steps 3–5 itself, with the journal held, before any
	// later entry can reach wal-newSeq; the journal stays on the failed
	// segment, dropping entries, if they fail.
	stalled := false
	var snapBytes int
	var perr error
	_ = s.c.rotate(f, func() error { //modlint:allow syncorder -- the old segment's error is its entries' outcome, resolved inside rotate; the snapshot persist takes covers them
		stalled = true
		snapBytes, perr = s.persist(newSeq)
		return perr
	})
	if perr != nil {
		_ = f.Close()
		return CheckpointInfo{}, perr
	}
	old := s.jfile
	s.jfile = f
	s.walSeq = newSeq
	if old != nil {
		_ = old.Close()
	}
	if !stalled {
		var err error
		if snapBytes, err = s.persist(newSeq); err != nil {
			return CheckpointInfo{}, err
		}
	}

	// 6. Collect the superseded pair (best-effort; recovery GCs too).
	s.gcLocked()
	return CheckpointInfo{Seq: newSeq, SnapshotBytes: snapBytes, Duration: time.Since(start)}, nil
}

// persist runs steps 3–5 of a checkpoint to seq: snapshot the database,
// write the snapshot atomically, and commit {snap-seq, wal-seq} in the
// manifest. It returns the snapshot's size.
//
// The epoch snapshot is immutable and taken without the database lock,
// and it still covers the old segment: mod.DB bumps its epoch under its
// write lock before it notifies the journal listener, so every entry
// that reached the old segment before the swap had already moved the
// epoch, and EpochSnapshot never returns a view older than the current
// epoch. Entries applied but not yet journaled land in the new segment;
// replay deduplicates those the snapshot also has.
func (s *Store) persist(seq uint64) (int, error) {
	var buf bytes.Buffer
	buf.Grow(s.snapBytes + s.snapBytes/8)
	if err := s.db.EpochSnapshot().SaveBinary(&buf); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: encode snapshot: %w", err)
	}
	s.snapBytes = buf.Len()
	snap := snapName(seq)
	if err := vfs.WriteFileAtomic(s.fs, path.Join(s.dir, snap), buf.Bytes()); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: write snapshot: %w", err)
	}
	man := storeManifest{
		Version: 1, Seq: seq,
		Snapshot: snap, Journal: walName(seq),
		Dim: s.db.Dim(), Tau0: tau0Ptr(s.opts.Tau0),
	}
	if err := writeManifest(s.fs, path.Join(s.dir, manifestName), man); err != nil {
		return 0, err
	}
	s.manifestSeq = seq
	return buf.Len(), nil
}

// WaitDurable is the ack point of every update: apply, then
// WaitDurable with the taus of the caller's own updates, lo to hi. It
// returns nil exactly when every entry the journal holds with a tau in
// [lo, hi] is durable under the store's commit policy: under
// CommitFlush once the flush it runs has written them to the segment
// file, under CommitGroup once the committer's fsync covering them
// returns. An entry a failed flush, fsync or rotation lost is an error
// whatever succeeded since.
func (s *Store) WaitDurable(lo, hi float64) error {
	return s.c.wait(lo, hi)
}

// Close flushes and fsyncs the journal and closes the segment file.
// The store's database remains readable; further updates are no longer
// journaled (the journal rejects them once closed).
func (s *Store) Close() error {
	s.c.shutdown() // final drain: one last fsync for pending waiters
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

// gcLocked removes files the manifest no longer references: older
// segments and snapshots, orphaned newer snapshots, leftover temp files.
// Errors are ignored — garbage is re-collectable on the next open.
func (s *Store) gcLocked() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	man, err := readManifest[storeManifest](s.fs, path.Join(s.dir, manifestName))
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
			switch kind, seq := classify(n); kind {
			case walFile:
				// Newer segments than the manifest's hold updates the
				// manifest pair does not cover — never collect those.
				if seq < man.Seq {
					_ = s.fs.Remove(path.Join(s.dir, n))
				}
			case snapFile:
				// Snapshots other than the manifest's are either
				// superseded or orphans of a failed checkpoint; the
				// manifest pair plus newer segments re-derive them.
				_ = s.fs.Remove(path.Join(s.dir, n))
			}
		}
	}
}

// readManifest loads and decodes a manifest — a store's or the root's —
// rejecting unknown fields: a manifest with fields this version doesn't
// know is a manifest it must not half-understand.
func readManifest[M storeManifest | rootManifest](fsys vfs.FS, p string) (man M, err error) {
	data, err := vfs.ReadFile(fsys, p)
	if err != nil {
		return man, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		return *new(M), fmt.Errorf("durable: manifest %s: %w", p, err)
	}
	return man, nil
}

// writeManifest encodes a manifest as one newline-terminated JSON line
// and atomically persists it.
func writeManifest[M storeManifest | rootManifest](fsys vfs.FS, p string, man M) error {
	data, err := json.Marshal(man)
	if err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(fsys, p, append(data, '\n')); err != nil {
		return fmt.Errorf("durable: write manifest: %w", err)
	}
	return nil
}
