package mod

// Journal: a durable append-only update log in the binary record format
// (binary.go). Snapshot + journal replay (ReplayTolerantBinary)
// reconstructs the database after a restart.

import (
	"bufio"
	"errors"
	"io"
	"math"
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
// record, and no fsync runs under the lock an entry takes.
type Journal struct {
	mu     sync.Mutex
	w      *bufio.Writer
	syncer SyncWriter // non-nil when the underlying writer can fsync
	err    error
	closed bool
	mark   Mark
}

// Mark is a position in a journal: Seq counts the entries handed to it,
// and Tau is the time of the last one. A database applies updates in
// strictly increasing tau and the journal records them in that order,
// so an entry's tau is also its place in the journal: the entries up to
// a mark are exactly those with tau <= Mark.Tau. An update's durability
// is decided by its own tau, never by what other writers appended since.
type Mark struct {
	Seq uint64
	Tau float64
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
	j := &Journal{w: bufio.NewWriter(w), mark: Mark{Tau: math.Inf(-1)}}
	j.syncer, _ = w.(SyncWriter)
	db.OnUpdate(func(u Update) {
		rec := recordPool.Get().(*recordBuf)
		b := AppendUpdateRecord(rec.b[:0], u)
		j.mu.Lock()
		// The mark moves for an entry the journal drops, too: the flush
		// or sync that covers it then fails, which is its outcome.
		j.mark = Mark{Seq: j.mark.Seq + 1, Tau: u.Tau}
		if j.err == nil && !j.closed {
			if _, werr := j.w.Write(b); werr != nil {
				j.err = werr
			}
		}
		j.mu.Unlock()
		rec.b = b // keep the grown scratch
		recordPool.Put(rec)
	})
	return j
}

// Mark returns the journal's position: the last entry handed to it. A
// Flush or Sync that begins after Mark returns covers every entry up to
// the mark; once it succeeds they are written, or on stable storage.
func (j *Journal) Mark() Mark {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.mark
}

// Flush forces buffered entries to the underlying writer. A flush
// failure becomes the journal's sticky error, and so does a flush of a
// closed journal: entries that reached it after Close were dropped.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if j.err != nil {
		return j.err
	}
	if j.closed {
		return ErrJournalClosed
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Sync flushes and, when the underlying writer supports it, forces the
// journal to stable storage. The flush runs under the journal's lock and
// the fsync after it is released, so updates keep reaching the buffer
// while the fsync is in flight; they ride the next one. A failed fsync
// becomes the sticky error of the writer it ran on (a later fsync of
// that writer may succeed without having kept what this one lost).
func (j *Journal) Sync() error {
	j.mu.Lock()
	err := j.flushLocked()
	w, syncer := j.w, j.syncer
	j.mu.Unlock()
	if err != nil || syncer == nil {
		return err
	}
	if err := syncer.Sync(); err != nil {
		j.mu.Lock()
		if j.w == w && j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
		return err
	}
	return nil
}

// Rotate redirects subsequent entries to w. Under the journal's lock it
// flushes and fsyncs the current writer and, when that succeeds,
// installs w: the swap happens at an entry boundary, so no entry is
// ever split across writers, and none reaches w before every earlier
// one is on stable storage.
//
// When the current writer has failed — now, or at an earlier write or
// fsync, which is its sticky error — entries are missing from it, and w
// must not take later ones unless what the database holds is durable
// some other way: a later entry recovered without an earlier one is a
// state the database never had. Rotate then runs persist (the caller's
// snapshot of the database), still holding the lock, so no entry is
// handed to the journal meanwhile, and installs w, clearing the error,
// only if persist succeeds. Otherwise — or with a nil persist — the
// journal keeps the error and keeps dropping entries, and w is not
// installed.
//
// The returned mark is that of the last entry handed to the old writer,
// and the error is the old writer's: together they decide exactly the
// entries up to the mark, so the caller can refuse to acknowledge them
// when it is non-nil.
func (j *Journal) Rotate(w io.Writer, persist func() error) (Mark, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := j.mark
	if j.closed {
		return m, ErrJournalClosed
	}
	err := j.flushLocked()
	if err == nil && j.syncer != nil {
		if err = j.syncer.Sync(); err != nil {
			j.err = err
		}
	}
	if err != nil && (persist == nil || persist() != nil) {
		return m, err
	}
	j.w = bufio.NewWriter(w)
	j.syncer, _ = w.(SyncWriter)
	j.err = nil
	return m, err
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
	err := j.flushLocked()
	if err == nil && j.syncer != nil {
		if err = j.syncer.Sync(); err != nil {
			j.err = err
		}
	}
	j.closed = true
	return err
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
