package vfs_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/errfs"
	"repro/internal/vfs"
)

func TestOSRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		fsys vfs.FS
		dir  string
	}{{vfs.OS{}, t.TempDir()}, {vfs.NewMem(), "/tmp"}} {
		roundTrip(t, tc.fsys, tc.dir)
	}
}

// roundTrip runs every operation of fsys once under dir.
func roundTrip(t *testing.T, fsys vfs.FS, dir string) {
	t.Helper()
	sub := filepath.Join(dir, "a", "b")
	if err := fsys.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(sub, "x.txt")
	f, err := fsys.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	af, err := fsys.Append(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fsys, p)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := fsys.Truncate(p, 5); err != nil {
		t.Fatal(err)
	}
	got, _ = vfs.ReadFile(fsys, p)
	if string(got) != "hello" {
		t.Fatalf("after truncate: %q", got)
	}
	names, err := fsys.ReadDir(sub)
	if err != nil || len(names) != 1 || names[0] != "x.txt" {
		t.Fatalf("ReadDir = %v, %v", names, err)
	}
	if err := fsys.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(p); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Open(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open after remove: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS{}
	p := filepath.Join(dir, "m.json")
	if err := vfs.WriteFileAtomic(fsys, p, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFileAtomic(fsys, p, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fsys, p)
	if err != nil || string(got) != "two" {
		t.Fatalf("read back %q, %v", got, err)
	}
	names, _ := fsys.ReadDir(dir)
	if len(names) != 1 {
		t.Fatalf("temp file left behind: %v", names)
	}
}

// TestWriteFileAtomicCrashLeavesOldContent sweeps a fault across every
// operation of an atomic overwrite and asserts the destination always
// holds the old or the new content in full.
func TestWriteFileAtomicCrashLeavesOldContent(t *testing.T) {
	// Measure the operation count of one clean overwrite.
	probeDir := t.TempDir()
	probe := errfs.New(vfs.OS{}, 0, errfs.FailOp)
	p := filepath.Join(probeDir, "m.json")
	if err := vfs.WriteFileAtomic(vfs.OS{}, p, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFileAtomic(probe, p, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 4 {
		t.Fatalf("expected >= 4 ops (create, write, sync, rename), got %d", total)
	}
	for _, mode := range []errfs.Mode{errfs.FailOp, errfs.ShortWrite, errfs.FailSync} {
		for k := 1; k <= total; k++ {
			dir := t.TempDir()
			path := filepath.Join(dir, "m.json")
			if err := vfs.WriteFileAtomic(vfs.OS{}, path, []byte("old")); err != nil {
				t.Fatal(err)
			}
			inj := errfs.New(vfs.OS{}, k, mode)
			err := vfs.WriteFileAtomic(inj, path, []byte("fresh"))
			got, rerr := vfs.ReadFile(vfs.OS{}, path)
			if rerr != nil {
				t.Fatalf("mode=%v k=%d: destination unreadable: %v", mode, k, rerr)
			}
			if err == nil {
				// The injected op was not on this protocol's path only if
				// injection never fired; with k <= total it must have.
				t.Fatalf("mode=%v k=%d: overwrite succeeded despite injection", mode, k)
			}
			if s := string(got); s != "old" && s != "fresh" {
				t.Fatalf("mode=%v k=%d: destination holds %q — a partial write\ntrace:\n%v",
					mode, k, s, inj.Trace())
			}
		}
	}
}

// TestMemCrash: a power loss keeps synced bytes and synced directory
// entries, a prefix of unsynced appends, each pending directory
// operation whole or not at all, and kills every open handle.
func TestMemCrash(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		m := vfs.NewMem()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(m.MkdirAll("/d"))
		must(m.SyncDir("/"))
		f, err := m.Create("/d/log")
		must(err)
		_, err = f.Write([]byte("synced|"))
		must(err)
		must(f.Sync())
		must(m.SyncDir("/d"))
		_, err = f.Write([]byte("volatile"))
		must(err)
		g, err := m.Create("/d/new.tmp")
		must(err)
		must(g.Sync())
		must(m.Rename("/d/new.tmp", "/d/new")) //modlint:allow syncorder -- left unsynced: the crash decides it

		m.Crash(seed)
		got, err := vfs.ReadFile(m, "/d/log")
		must(err)
		if s := string(got); len(s) < len("synced|") || s != "synced|volatile"[:len(s)] {
			t.Fatalf("seed %d: log holds %q, not the synced bytes plus a prefix of the rest", seed, s)
		}
		names, err := m.ReadDir("/d")
		must(err)
		state := fmt.Sprint(len(got), names)
		seen[state] = true
		switch fmt.Sprint(names) {
		case "[log]", "[log new]", "[log new.tmp]":
		default:
			t.Fatalf("seed %d: /d holds %v: a rename half applied", seed, names)
		}
		if _, err := f.Write([]byte("x")); err == nil {
			t.Fatalf("seed %d: a handle opened before the crash still writes", seed)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("64 seeds reached only %d post-crash states: %v", len(seen), seen)
	}
}

// TestWriteFileAtomicPowerLoss crashes an atomic overwrite on vfs.Mem at
// every operation, in every fault mode, then cuts the power: the
// destination holds the old or the new content in full, and the new
// content once the overwrite returned nil.
func TestWriteFileAtomicPowerLoss(t *testing.T) {
	for _, mode := range []errfs.Mode{errfs.FailOp, errfs.ShortWrite, errfs.FailSync} {
		for k := 1; ; k++ {
			m := vfs.NewMem()
			if err := vfs.WriteFileAtomic(m, "/m", []byte("old")); err != nil {
				t.Fatal(err)
			}
			inj := errfs.New(m, k, mode)
			err := vfs.WriteFileAtomic(inj, "/m", []byte("fresh"))
			m.Crash(int64(k))
			got, rerr := vfs.ReadFile(m, "/m")
			if s := string(got); rerr != nil || (s != "old" && s != "fresh") || (err == nil && s != "fresh") {
				t.Fatalf("mode=%v k=%d: overwrite returned %v, destination holds %q (%v)", mode, k, err, s, rerr)
			}
			if !inj.Fired() {
				break
			}
		}
	}
}
