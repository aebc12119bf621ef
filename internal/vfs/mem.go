package vfs

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
)

// Mem is an in-memory FS that keeps, for every file and every directory
// entry, what a power loss would keep apart from what only the running
// process sees. The model is ALICE's (Pillai et al., "All File Systems
// Are Not Created Equal", OSDI 2014):
//
//   - A file's bytes are durable up to its last Sync. Bytes written
//     since may be lost at a crash, or torn: an append keeps a prefix.
//   - A create, rename or remove (and a MkdirAll's new directories) is
//     durable once its directory is synced with SyncDir. Before that,
//     a crash keeps any subset of the directory's pending operations,
//     each one whole.
//
// Crash applies a power loss; until then Mem reads like any
// filesystem. A process kill is no Crash at all: the kernel keeps what
// the process wrote. Paths are slash-separated and rooted at "/", which
// always exists. Mem is safe for concurrent use.
type Mem struct {
	mu   sync.Mutex
	root *memNode
	boot int // bumped by Crash: handles opened before it are dead
}

// memNode is a file or a directory.
type memNode struct {
	dir bool
	// A file's contents: data as the process sees it, durable as of the
	// last Sync.
	data, durable []byte
	// A directory's entries: as the process sees them, as of the last
	// SyncDir, and the operations in between, in order.
	kids, durableKids map[string]*memNode
	pending           []dirOp
}

// dirOp is one create, rename or remove: the entries it set (nil for
// a removal), applied together or not at all.
type dirOp []dirEntry

type dirEntry struct {
	name string
	node *memNode
}

func newDir() *memNode {
	return &memNode{dir: true, kids: map[string]*memNode{}, durableKids: map[string]*memNode{}}
}

// NewMem returns an empty filesystem holding only its root directory.
func NewMem() *Mem { return &Mem{root: newDir()} }

func pathErr(op, name string, err error) error { return &fs.PathError{Op: op, Path: name, Err: err} }

// split cleans name into its parent directory and base name.
func split(name string) (string, string) {
	name = path.Clean("/" + name)
	return path.Dir(name), path.Base(name)
}

// lookupLocked resolves a cleaned absolute path.
func (m *Mem) lookupLocked(name string) *memNode {
	n := m.root
	for _, part := range strings.Split(strings.Trim(path.Clean("/"+name), "/"), "/") {
		if part == "" {
			continue
		}
		if !n.dir {
			return nil
		}
		if n = n.kids[part]; n == nil {
			return nil
		}
	}
	return n
}

// dirLocked resolves name's parent directory.
func (m *Mem) dirLocked(op, name string) (*memNode, string, error) {
	dir, base := split(name)
	d := m.lookupLocked(dir)
	if d == nil || !d.dir {
		return nil, "", pathErr(op, name, fs.ErrNotExist)
	}
	return d, base, nil
}

// set makes one directory operation: the entries change now, and
// durably at the directory's next SyncDir.
func (d *memNode) set(op dirOp) {
	for _, e := range op {
		if e.node == nil {
			delete(d.kids, e.name)
		} else {
			d.kids[e.name] = e.node
		}
	}
	d.pending = append(d.pending, op)
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.root
	for _, part := range strings.Split(strings.Trim(path.Clean("/"+dir), "/"), "/") {
		if part == "" {
			continue
		}
		next := n.kids[part]
		if next == nil {
			next = newDir()
			n.set(dirOp{{part, next}})
		} else if !next.dir {
			return pathErr("mkdir", dir, errors.New("not a directory"))
		}
		n = next
	}
	return nil
}

// ReadDir implements FS.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.lookupLocked(dir)
	if d == nil {
		return nil, pathErr("readdir", dir, fs.ErrNotExist)
	}
	if !d.dir {
		return nil, pathErr("readdir", dir, errors.New("not a directory"))
	}
	names := make([]string, 0, len(d.kids))
	for n := range d.kids {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Open implements FS. The reader sees the contents as of the call.
func (m *Mem) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookupLocked(name)
	if n == nil {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	if n.dir {
		return nil, pathErr("open", name, errors.New("is a directory"))
	}
	return io.NopCloser(bytes.NewReader(bytes.Clone(n.data))), nil
}

// Create implements FS.
func (m *Mem) Create(name string) (File, error) { return m.open("create", name, true) }

// Append implements FS.
func (m *Mem) Append(name string) (File, error) { return m.open("append", name, false) }

func (m *Mem) open(op, name string, trunc bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, base, err := m.dirLocked(op, name)
	if err != nil {
		return nil, err
	}
	n := d.kids[base]
	switch {
	case n == nil:
		n = &memNode{}
		d.set(dirOp{{base, n}})
	case n.dir:
		return nil, pathErr(op, name, errors.New("is a directory"))
	case trunc:
		n.data = n.data[:0:0]
	}
	return &memFile{m: m, n: n, name: name, boot: m.boot}, nil
}

// Rename implements FS. Both names must be in one directory.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, oldBase, err := m.dirLocked("rename", oldname)
	if err != nil {
		return err
	}
	if dir, _ := split(newname); dir != path.Dir(path.Clean("/"+oldname)) {
		return pathErr("rename", newname, errors.New("rename across directories"))
	}
	n := d.kids[oldBase]
	if n == nil {
		return pathErr("rename", oldname, fs.ErrNotExist)
	}
	_, newBase := split(newname)
	d.set(dirOp{{oldBase, nil}, {newBase, n}})
	return nil
}

// Remove implements FS: a file, or an empty directory.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, base, err := m.dirLocked("remove", name)
	if err != nil {
		return err
	}
	n := d.kids[base]
	if n == nil {
		return pathErr("remove", name, fs.ErrNotExist)
	}
	if n.dir && len(n.kids) > 0 {
		return pathErr("remove", name, errors.New("directory not empty"))
	}
	d.set(dirOp{{base, nil}})
	return nil
}

// Truncate implements FS.
func (m *Mem) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookupLocked(name)
	if n == nil || n.dir {
		return pathErr("truncate", name, fs.ErrNotExist)
	}
	if size < int64(len(n.data)) {
		n.data = n.data[:size:size]
	} else {
		n.data = append(n.data, make([]byte, size-int64(len(n.data)))...)
	}
	return nil
}

// SyncDir implements FS: the directory's entries become durable.
func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.lookupLocked(dir)
	if d == nil || !d.dir {
		return pathErr("syncdir", dir, fs.ErrNotExist)
	}
	d.durableKids = cloneKids(d.kids)
	d.pending = nil
	return nil
}

func cloneKids(kids map[string]*memNode) map[string]*memNode {
	c := make(map[string]*memNode, len(kids))
	for k, v := range kids {
		c[k] = v
	}
	return c
}

// Crash models a power loss. Every directory keeps its synced entries
// plus a seeded subset of its pending operations, applied in order;
// every file keeps its synced bytes plus a seeded prefix of what was
// appended since (a file rewritten in place keeps either its synced
// bytes or a prefix of its new ones). Afterwards everything is durable,
// as it is on a disk after a reboot, and every handle opened before the
// crash fails.
func (m *Mem) Crash(seed int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	m.boot++
	m.root.crash(rng, map[*memNode]bool{})
}

// crash settles n's post-crash state, then its children's, in name
// order so a seed replays.
func (n *memNode) crash(rng *rand.Rand, seen map[*memNode]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	if !n.dir {
		keep := n.durable
		if lcp := commonPrefix(n.data, n.durable); lcp == len(n.durable) || rng.Intn(2) == 0 {
			keep = n.data[:lcp+rng.Intn(len(n.data)-lcp+1)]
		}
		n.data, n.durable = bytes.Clone(keep), bytes.Clone(keep)
		return
	}
	kids := n.durableKids
	for _, op := range n.pending {
		if rng.Intn(2) == 0 {
			continue
		}
		for _, e := range op {
			if e.node == nil {
				delete(kids, e.name)
			} else {
				kids[e.name] = e.node
			}
		}
	}
	n.kids, n.durableKids, n.pending = kids, cloneKids(kids), nil
	names := make([]string, 0, len(kids))
	for k := range kids {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		kids[k].crash(rng, seen)
	}
}

func commonPrefix(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// memFile is an open file: writes append, Sync makes them durable.
type memFile struct {
	m      *Mem
	n      *memNode
	name   string
	boot   int
	closed bool
}

var errDead = errors.New("vfs: handle opened before a crash")

func (f *memFile) check(op string) error {
	switch {
	case f.closed:
		return pathErr(op, f.name, fs.ErrClosed)
	case f.boot != f.m.boot:
		return pathErr(op, f.name, errDead)
	}
	return nil
}

// Write implements File.
func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.check("write"); err != nil {
		return 0, err
	}
	f.n.data = append(f.n.data, p...)
	return len(p), nil
}

// Sync implements File.
func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.check("sync"); err != nil {
		return err
	}
	f.n.durable = bytes.Clone(f.n.data)
	return nil
}

// Close implements File.
func (f *memFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return pathErr("close", f.name, fs.ErrClosed)
	}
	f.closed = true
	return nil
}
