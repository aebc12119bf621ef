package lint

import "testing"

// syncorder only fires inside the durability packages; the fixtures
// type-check under an import path with the internal/durable suffix to
// pass the gate, and one control fixture proves any other path is
// silent.

const syncOrderPkg = "repro/internal/durable"

func TestSyncOrderRenameRules(t *testing.T) {
	checkFixtureAt(t, SyncOrder, syncOrderPkg, `package durable

type file interface {
	Write(p []byte) (int, error)
	Sync() error
}

type fsys interface {
	Create(name string) (file, error)
	Rename(old, new string) error
	SyncDir(dir string) error
}

// publishUnsynced skips the fsync between write and rename.
func publishUnsynced(fs fsys, tmp, final string) error {
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("manifest")); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil { // want "without an intervening Sync"
		return err
	}
	return fs.SyncDir(".")
}

// publishNoDirSync renames but never fsyncs the directory.
func publishNoDirSync(fs fsys, f file, tmp, final string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return fs.Rename(tmp, final) // want "without a following SyncDir"
}
`)
}

func TestSyncOrderErrDropAndAck(t *testing.T) {
	checkFixtureAt(t, SyncOrder, syncOrderPkg, `package durable

type file interface {
	Sync() error
	Flush() error
}

type journal interface {
	Rotate(w file) (uint64, error)
}

type committer struct {
	synced uint64
	err    error
}

func (c *committer) rotate(w file) error { return c.err }

func dropSync(f file) {
	_ = f.Sync() // want "discards its error"
}

func dropRotate(j journal, c *committer, f file) {
	_, _ = j.Rotate(f) // want "discards its error"
	_ = c.rotate(f)    // want "discards its error"
}

func bareFlush(f file) {
	f.Flush() // want "discards its error"
}

func ackUnguarded(c *committer, f file, target uint64) {
	c.err = f.Sync()
	c.synced = target // want "watermark advanced outside"
}

func ackGuarded(c *committer, f file, target uint64) {
	if err := f.Sync(); err == nil {
		c.synced = target
	}
}
`)
}

func TestSyncOrderNegative(t *testing.T) {
	checkFixtureAt(t, SyncOrder, syncOrderPkg, `package durable

type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type fsys interface {
	Create(name string) (file, error)
	Rename(old, new string) error
	SyncDir(dir string) error
}

// writeFileAtomic is the canonical tmp+fsync+rename+dirsync dance the
// analyzer encodes; it must pass untouched.
func writeFileAtomic(fs fsys, dir, tmp, final string, data []byte) error {
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// Rename is a primitive forwarder: exempt from the ordering rules.
func Rename(fs fsys, old, new string) error {
	return fs.Rename(old, new)
}
`)
}

func TestSyncOrderGatedByPackagePath(t *testing.T) {
	// The same violations outside internal/durable / internal/vfs are
	// out of scope and must stay silent.
	findings := lintFixtureAt(t, SyncOrder, "repro/internal/server", `package server

type file interface{ Sync() error }

func dropSync(f file) {
	_ = f.Sync()
}
`)
	if len(findings) != 0 {
		t.Fatalf("syncorder fired outside durability packages: %v", findings)
	}
}

func TestSyncOrderSuppressed(t *testing.T) {
	findings := lintFixtureAt(t, SyncOrder, syncOrderPkg, `package durable

type file interface{ Sync() error }

func listenerPath(f file) {
	_ = f.Sync() //modlint:allow syncorder -- sticky error surfaced via WaitDurable; listener must not block
}
`)
	if len(findings) != 0 {
		t.Fatalf("suppressed fixture produced findings: %v", findings)
	}
}
