package mod

// Journal: a durable append-only update log in the binary record format
// (binary.go). Snapshot + journal replay (ReplayTolerantBinary)
// reconstructs the database after a restart.

import (
	"bufio"
	"errors"
	"io"
	"sync"
)

// SyncWriter is implemented by writers that can force buffered data to
// stable storage (notably *os.File). When the journal's underlying
// writer implements it, Sync and Close fsync after flushing.
type SyncWriter interface {
	Sync() error
}

// Journal appends updates to a writer as they are applied. It is driven
// by its database's listener hook; create it before applying updates
// and every successful update is recorded, in the order the database
// applied them. Flush, Sync and Rotate may run concurrently with Apply:
// entries are serialized internally, each as one framed, checksummed
// record.
type Journal struct {
	mu     sync.Mutex
	w      *bufio.Writer
	syncer SyncWriter // non-nil when the underlying writer can fsync
	err    error
	closed bool
	seq    uint64 // entries successfully buffered since creation
}

// recordBuf is a pooled encode scratch: updates are serialized into it
// outside the journal lock, so the lock covers only the buffered byte
// copy and a Flush or Sync holding it never waits on an encode.
type recordBuf struct{ b []byte }

var recordPool = sync.Pool{New: func() any { return new(recordBuf) }}

// ErrJournalClosed is returned by operations on a closed journal.
var ErrJournalClosed = errors.New("mod: journal closed")

// ErrNotDurable marks an update that was applied in memory but whose
// journal entry could not be made durable: the write, flush or fsync
// that should have carried it failed. The update may be lost in a
// crash; it is not a conflict with the database's state.
var ErrNotDurable = errors.New("mod: update applied but not durable")

// NewJournal wires a journal to db: every subsequently applied update
// is appended to w as one binary record. The caller owns the segment
// header — write BinaryJournalHeader() to a fresh file before any update
// can arrive (the durable store does this when it creates a segment).
// Call Close before closing the underlying writer.
func NewJournal(db *DB, w io.Writer) *Journal {
	j := &Journal{w: bufio.NewWriter(w)}
	j.syncer, _ = w.(SyncWriter)
	db.OnUpdate(func(u Update) {
		rec := recordPool.Get().(*recordBuf)
		b := AppendUpdateRecord(rec.b[:0], u)
		j.mu.Lock()
		if j.err == nil && !j.closed {
			if _, werr := j.w.Write(b); werr != nil {
				j.err = werr
			} else {
				j.seq++
			}
		}
		j.mu.Unlock()
		rec.b = b // keep the grown scratch
		recordPool.Put(rec)
	})
	return j
}

// Seq returns the number of entries successfully buffered so far. A
// Sync that begins after Seq returns n covers at least the first n
// entries: once it succeeds they are on stable storage. Group commit
// uses this as the ack watermark.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Flush forces buffered entries to the underlying writer. A flush
// failure becomes the journal's sticky error.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Sync flushes and, when the underlying writer supports it, forces the
// journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := j.flushLocked(); err != nil {
		return err
	}
	if j.syncer != nil {
		if err := j.syncer.Sync(); err != nil {
			j.err = err
			return err
		}
	}
	return nil
}

// Rotate atomically redirects subsequent entries to w: it flushes (and
// fsyncs, when supported) the current writer, then installs w as the
// journal's sink. The swap happens at an entry boundary — entries are
// serialized under the journal's lock — so no entry is ever split
// across writers. A sticky error is cleared by a successful rotation:
// the caller is rotating to a fresh segment precisely because everything
// the old writer held is being superseded by a snapshot, so the old
// writer's failure no longer taints the new segment. The flush/sync
// error of the old writer is still reported so the caller can decide
// whether the old segment's tail is trustworthy. The returned sequence
// number is that of the last entry written to the old writer — taken
// under the same lock as the swap, so group commit can resolve exactly
// the entries whose durability the old writer's final flush+fsync
// decided.
func (j *Journal) Rotate(w io.Writer) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.seq, ErrJournalClosed
	}
	oldErr := j.err
	if oldErr == nil {
		oldErr = j.syncLocked()
	}
	j.w = bufio.NewWriter(w)
	j.syncer, _ = w.(SyncWriter)
	j.err = nil
	return j.seq, oldErr
}

// Close flushes (and fsyncs, if supported), stops recording further
// updates, and surfaces the sticky write error. It does not close the
// underlying writer, which the caller owns. Closing twice returns
// ErrJournalClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		if j.err != nil {
			return j.err
		}
		return ErrJournalClosed
	}
	j.closed = true
	return j.syncLocked()
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReplayStats reports what a tolerant replay did with a journal stream.
type ReplayStats struct {
	// Applied counts entries decoded and applied to the database.
	Applied int
	// Skipped counts entries that decoded but were rejected by Apply —
	// typically chronology duplicates when replaying a journal over a
	// snapshot that already contains a prefix of it.
	Skipped int
	// TornTail reports that the stream ended in an incomplete or
	// undecodable final record (a crash mid-append), which was dropped.
	TornTail bool
	// TailBytes is the length of the dropped torn tail, zero otherwise.
	TailBytes int
	// GoodBytes is the byte offset just past the last record that
	// decoded cleanly (including skipped ones). It is always a safe
	// boundary: replaying the first GoodBytes bytes again reproduces
	// Applied+Skipped exactly, and truncating a journal file to
	// GoodBytes makes it safe to append to.
	GoodBytes int64
}
