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
//
// Legacy import: stores written before the binary codec hold
// snap-N.json (mod.SaveJSON) and wal-N.jsonl (one JSON line per update).
// They are read, never written. Recovery replays them like any other
// pair, leaves the .jsonl segment as it found it (torn tail included),
// puts the live journal on a fresh binary segment, and runs one
// checkpoint before OpenStore returns — so the store is binary before
// the first update arrives, and a crash inside that checkpoint is a
// crash inside a checkpoint: the old manifest still commits to the JSON
// pair and the next open does it again.
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
// directory can hold and extracts their sequence number. It is the one
// place that knows the legacy JSON names; legacy files are only ever
// read and collected.
func classify(name string) (kind fileKind, seq uint64, legacy bool) {
	stem, ext, _ := strings.Cut(name, ".")
	switch {
	case strings.HasPrefix(stem, "wal-") && (ext == "wal" || ext == "jsonl"):
		kind, legacy, stem = walFile, ext == "jsonl", stem[len("wal-"):]
	case strings.HasPrefix(stem, "snap-") && (ext == "bin" || ext == "json"):
		kind, legacy, stem = snapFile, ext == "json", stem[len("snap-"):]
	default:
		return otherFile, 0, false
	}
	seq, err := strconv.ParseUint(stem, 10, 64)
	if err != nil {
		return otherFile, 0, false
	}
	return kind, seq, legacy
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
	man, err := readManifest[storeManifest](fsys, path.Join(dir, manifestName))
	legacy := false
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
		if legacy, err = s.recover(man); err != nil {
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
	if opts.Commit == CommitGroup {
		s.c = newCommitter(s.j, opts.commitMetrics)
	}
	if legacy {
		// Recovery read JSON files and left the live journal on a fresh
		// binary segment. This checkpoint writes the binary snapshot,
		// commits the binary pair and collects the JSON files before any
		// update can arrive; if it fails, the manifest still commits to
		// the JSON pair and the next open starts over.
		if _, err := s.Checkpoint(); err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("durable: %s: import of the legacy JSON store: %w", dir, err)
		}
	}
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
	// No manifest means nothing here was ever committed. A legacy build
	// that crashed at this point left its first segment under the JSON
	// name, which the Create below does not overwrite and recovery would
	// refuse as a second copy of segment 1.
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("durable: list %s: %w", s.dir, err)
	}
	for _, n := range names {
		if _, _, legacy := classify(n); legacy {
			if err := s.fs.Remove(path.Join(s.dir, n)); err != nil {
				return fmt.Errorf("durable: fresh store %s: %w", s.dir, err)
			}
		}
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
	s.jfile = f
	s.manifestSeq = 1
	s.walSeq = 1
	return nil
}

// recover restores the database named by the manifest: snapshot, then
// the manifest's segment and every orphaned newer segment in sequence
// order, each replayed tolerantly by its own codec. A binary final
// segment is truncated past its last complete entry and reopened for
// appending. legacy reports that a JSON file was read (or is named by
// the manifest): the live journal is then on a fresh binary segment
// past everything replayed, and the caller owes the checkpoint that
// commits it.
func (s *Store) recover(man storeManifest) (legacy bool, err error) {
	if man.Version != 1 {
		return false, fmt.Errorf("durable: %s: unsupported manifest version %d", s.dir, man.Version)
	}
	if s.opts.Dim != 0 && s.opts.Dim != man.Dim {
		return false, fmt.Errorf("durable: %s holds a %d-D database, want %d-D", s.dir, man.Dim, s.opts.Dim)
	}
	_, _, legacy = classify(man.Journal)
	if man.Snapshot != "" {
		load := mod.LoadBinary
		if _, _, snapLegacy := classify(man.Snapshot); snapLegacy {
			legacy = true
			load = mod.LoadJSON
		}
		r, err := s.fs.Open(path.Join(s.dir, man.Snapshot))
		if err != nil {
			return false, fmt.Errorf("durable: open snapshot: %w", err)
		}
		db, lerr := load(r)
		cerr := r.Close()
		if lerr != nil {
			return false, fmt.Errorf("durable: snapshot %s: %w", man.Snapshot, lerr)
		}
		if cerr != nil {
			return false, cerr
		}
		if db.Dim() != man.Dim {
			return false, fmt.Errorf("durable: snapshot %s is %d-D, manifest says %d-D", man.Snapshot, db.Dim(), man.Dim)
		}
		s.db = db
		s.recovery.SnapshotLoaded = true
	} else {
		s.db = mod.NewDB(man.Dim, man.tau0Of())
	}
	segs, err := s.segmentsFrom(man.Seq)
	if err != nil {
		return false, err
	}
	var tail walSegment // the last segment replayed
	var tailStats mod.ReplayStats
	for i, seg := range segs {
		r, oerr := s.fs.Open(path.Join(s.dir, seg.name))
		if errors.Is(oerr, os.ErrNotExist) && i > 0 {
			continue // gap beyond the manifest segment: nothing to replay
		}
		if oerr != nil {
			return false, fmt.Errorf("durable: open journal %s: %w", seg.name, oerr)
		}
		replay := mod.ReplayTolerantBinary
		if seg.legacy {
			legacy = true
			replay = mod.ReplayTolerant
		}
		st, rerr := replay(s.db, r)
		_ = r.Close()
		if rerr != nil {
			return false, fmt.Errorf("durable: replay %s: %w", seg.name, rerr)
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
	// The live journal goes on the last segment replayed when that is a
	// binary segment with at least its header intact. Otherwise a segment
	// is created: past a JSON tail, which is history and stays as found
	// (torn tail and all) until the checkpoint collects it; in place of a
	// segment whose crash came before or inside the header; or, no
	// segment found at all, in place of the manifest's — created and
	// synced before the manifest committed to it, so that is reachable
	// only by outside interference.
	s.walSeq = max(man.Seq, tail.seq)
	switch {
	case tail.legacy:
		s.walSeq++
	case tailStats.GoodBytes > 0:
		p := path.Join(s.dir, tail.name)
		if tailStats.TornTail {
			if err := s.fs.Truncate(p, tailStats.GoodBytes); err != nil {
				return false, fmt.Errorf("durable: truncate torn tail of %s: %w", tail.name, err)
			}
		}
		if s.jfile, err = s.fs.Append(p); err != nil {
			return false, fmt.Errorf("durable: reopen journal %s: %w", tail.name, err)
		}
		return legacy, nil
	}
	if s.jfile, err = s.createSegment(s.walSeq); err != nil {
		return false, fmt.Errorf("durable: recover %s: %w", s.dir, err)
	}
	return legacy, nil
}

// walSegment names one on-disk journal segment.
type walSegment struct {
	seq    uint64
	name   string
	legacy bool // a JSON-lines segment: replayed, never appended to
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
		kind, seq, legacy := classify(n)
		if kind != walFile || seq < from {
			continue
		}
		if prev, dup := seen[seq]; dup {
			return nil, fmt.Errorf("durable: journal segment %d exists as both %s and %s", seq, prev, n)
		}
		seen[seq] = n
		segs = append(segs, walSegment{seq: seq, name: n, legacy: legacy})
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
		_ = s.c.rotate(f) //modlint:allow syncorder -- old-segment flush loss is covered by the snapshot taken next; waiters get the outcome via resolve
	} else {
		_, _ = s.j.Rotate(f) //modlint:allow syncorder -- old-segment flush loss is covered by the snapshot taken next
	}
	s.jfile = f
	s.walSeq = newSeq
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
	if err := s.db.EpochSnapshot().SaveBinary(&buf); err != nil {
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: encode snapshot: %w", err)
	}
	s.snapBytes = buf.Len()
	newSnap := snapName(newSeq)
	if err := vfs.WriteFileAtomic(s.fs, path.Join(s.dir, newSnap), buf.Bytes()); err != nil {
		return CheckpointInfo{}, fmt.Errorf("durable: checkpoint: write snapshot: %w", err)
	}

	// 5. Commit.
	man := storeManifest{
		Version: 1, Seq: newSeq,
		Snapshot: newSnap, Journal: walName(newSeq),
		Dim: s.db.Dim(), Tau0: tau0Ptr(s.opts.Tau0),
	}
	if err := writeManifest(s.fs, path.Join(s.dir, manifestName), man); err != nil {
		return CheckpointInfo{}, err
	}
	s.manifestSeq = newSeq

	// 6. Collect the superseded pair (best-effort; recovery GCs too).
	s.gcLocked()
	return CheckpointInfo{Seq: newSeq, SnapshotBytes: buf.Len(), Duration: time.Since(start)}, nil
}

// WaitDurable is the ack point of every update: apply, then
// WaitDurable. It returns nil exactly when every journal entry buffered
// before the call is durable under the store's commit policy. Under
// CommitFlush it flushes the journal to the segment file and returns
// the journal's error; under CommitGroup it waits for the committer's
// fsync covering the entries.
func (s *Store) WaitDurable() error {
	if s.c == nil {
		return s.j.Flush()
	}
	if err := s.j.Err(); err != nil {
		return err
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
			switch kind, seq, _ := classify(n); kind {
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
