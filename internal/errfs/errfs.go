// Package errfs is a deterministic fault injector for the durability
// protocol: it wraps a vfs.FS (the power-loss model vfs.Mem, or the real
// vfs.OS) and fails exactly the Nth mutating operation, after which
// every further mutating operation fails too — modelling a process that
// dies at that point and never touches the disk again. Reads keep
// working (recovery inspects the wreckage), and everything before the
// crash point really happened on the inner filesystem. A test then
// re-opens the directory through the inner filesystem, as it is (a
// process kill) or after vfs.Mem's Crash (a power loss), and asserts
// what recovery makes of it.
//
// Four fault shapes cover the protocol's failure modes:
//
//   - FailOp: the operation returns an error with no effect — a clean
//     crash between two filesystem operations.
//   - ShortWrite: a Write persists only half its bytes, then the crash —
//     the torn-write state a dying process leaves in a journal or a
//     snapshot temp file. Non-write operations degrade to FailOp.
//   - FailSync: a Sync/SyncDir reports failure without syncing, then the
//     crash. Non-sync operations degrade to FailOp.
//   - FailOnce: the operation returns an error with no effect, and the
//     process lives on — a transient I/O error (a full disk, say) that
//     the program must survive without acknowledging what it lost.
//
// Operation counting is deterministic for a deterministic caller, so
// sweeping FailAt over 1..Ops() exercises every crash point exactly
// once (the durability driver in internal/durable). Two injectors
// stack: a FailOnce outside a crashing one gives a transient fault
// followed by a crash.
package errfs

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/vfs"
)

// Mode selects the fault shape injected at the FailAt'th operation.
type Mode int

const (
	// FailOp fails the operation cleanly, with no effect.
	FailOp Mode = iota
	// ShortWrite persists half the bytes of a Write, then fails; for
	// non-write operations it behaves like FailOp.
	ShortWrite
	// FailSync fails a Sync or SyncDir without performing it; for
	// non-sync operations it behaves like FailOp.
	FailSync
	// FailOnce fails the operation with no effect and injects nothing
	// more: the process lives on.
	FailOnce
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case FailOp:
		return "fail-op"
	case ShortWrite:
		return "short-write"
	case FailSync:
		return "fail-sync"
	case FailOnce:
		return "fail-once"
	default:
		return "unknown"
	}
}

// ErrInjected is the error returned by the operation the fault fires
// on.
var ErrInjected = errors.New("errfs: injected fault")

// ErrCrashed is returned by every mutating operation after the fault
// (but FailOnce's): the simulated process is dead.
var ErrCrashed = errors.New("errfs: crashed (operation after injection point)")

// FS wraps an inner filesystem with deterministic fault injection. The
// zero FailAt (or a FailAt beyond the run's operation count) injects
// nothing and merely counts, which is how a test measures a protocol
// run's length before sweeping the crash point across it.
type FS struct {
	inner vfs.FS

	mu     sync.Mutex
	failAt int // 1-based operation index to fail; 0 disables
	mode   Mode
	n      int // mutating operations seen
	fired  bool
	trace  []string
}

// New wraps inner, failing the failAt'th mutating operation with the
// given mode.
func New(inner vfs.FS, failAt int, mode Mode) *FS {
	return &FS{inner: inner, failAt: failAt, mode: mode}
}

// Ops returns the number of mutating operations attempted so far
// (including the faulted one and post-crash rejections).
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Fired reports whether the fault has fired.
func (f *FS) Fired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Crashed reports whether the simulated process is dead: the fault has
// fired, in a mode other than FailOnce.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired && f.mode != FailOnce
}

// Trace returns the operation log — one "op(args)" line per mutating
// operation, the injected one suffixed with the mode — for diagnosing a
// failing crash-matrix entry.
func (f *FS) Trace() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.trace...)
}

// step accounts one mutating operation and decides its fate: nil to
// proceed, ErrInjected/ErrCrashed to fail. inject reports whether this
// call is the injection point (the caller applies mode-specific
// behavior).
func (f *FS) step(op string) (inject bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fired && f.mode != FailOnce {
		f.trace = append(f.trace, op+" [dead]")
		return false, ErrCrashed
	}
	f.n++
	if f.failAt > 0 && f.n == f.failAt {
		f.fired = true
		f.trace = append(f.trace, fmt.Sprintf("%s [inject %s]", op, f.mode))
		return true, nil
	}
	f.trace = append(f.trace, op)
	return false, nil
}

// MkdirAll implements vfs.FS.
func (f *FS) MkdirAll(dir string) error {
	inject, err := f.step("mkdirall(" + dir + ")")
	if err != nil {
		return err
	}
	if inject {
		return ErrInjected
	}
	return f.inner.MkdirAll(dir)
}

// ReadDir implements vfs.FS (reads are never faulted).
func (f *FS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// Open implements vfs.FS (reads are never faulted).
func (f *FS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }

// Create implements vfs.FS.
func (f *FS) Create(name string) (vfs.File, error) {
	inject, err := f.step("create(" + name + ")")
	if err != nil {
		return nil, err
	}
	if inject {
		return nil, ErrInjected
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: file}, nil
}

// Append implements vfs.FS.
func (f *FS) Append(name string) (vfs.File, error) {
	inject, err := f.step("append(" + name + ")")
	if err != nil {
		return nil, err
	}
	if inject {
		return nil, ErrInjected
	}
	file, err := f.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: file}, nil
}

// Rename implements vfs.FS.
func (f *FS) Rename(oldname, newname string) error {
	inject, err := f.step("rename(" + oldname + " -> " + newname + ")")
	if err != nil {
		return err
	}
	if inject {
		return ErrInjected
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements vfs.FS.
func (f *FS) Remove(name string) error {
	inject, err := f.step("remove(" + name + ")")
	if err != nil {
		return err
	}
	if inject {
		return ErrInjected
	}
	return f.inner.Remove(name)
}

// Truncate implements vfs.FS.
func (f *FS) Truncate(name string, size int64) error {
	inject, err := f.step(fmt.Sprintf("truncate(%s, %d)", name, size))
	if err != nil {
		return err
	}
	if inject {
		return ErrInjected
	}
	return f.inner.Truncate(name, size)
}

// SyncDir implements vfs.FS.
func (f *FS) SyncDir(dir string) error {
	inject, err := f.step("syncdir(" + dir + ")")
	if err != nil {
		return err
	}
	if inject {
		// The sync is skipped; entry operations before it may well have
		// hit the backing store already, which is exactly the ambiguity
		// a real fsync failure leaves.
		return ErrInjected
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads writes and syncs through the injector.
type faultFile struct {
	fs    *FS
	name  string
	inner vfs.File
}

// Write implements io.Writer.
func (ff *faultFile) Write(p []byte) (int, error) {
	inject, err := ff.fs.step(fmt.Sprintf("write(%s, %d)", ff.name, len(p)))
	if err != nil {
		return 0, err
	}
	if inject {
		if ff.fs.mode == ShortWrite && len(p) > 0 {
			n, werr := ff.inner.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, ErrInjected
		}
		return 0, ErrInjected
	}
	return ff.inner.Write(p)
}

// Sync implements vfs.File.
func (ff *faultFile) Sync() error {
	inject, err := ff.fs.step("sync(" + ff.name + ")")
	if err != nil {
		return err
	}
	if inject {
		// Under FailSync the data may have reached the disk; under the
		// other modes nothing distinguishes them for a sync — either
		// way the sync reports failure and the process dies.
		return ErrInjected
	}
	return ff.inner.Sync()
}

// Close implements vfs.File. Close is not counted as a fault point: a
// crashed process's descriptors close implicitly, and failing Close
// after a successful Sync adds no new on-disk state to explore. A
// crashed FS still closes the underlying handle so backing temp dirs
// can be cleaned up.
func (ff *faultFile) Close() error { return ff.inner.Close() }
