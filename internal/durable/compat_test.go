package durable_test

// A data directory written by the last commit whose snapshots carried
// the applied-update log (ea2cb6c; see internal/mod/compat_test.go):
// two shards, each a version-2 snapshot taken after the first seven
// updates of the history below plus a journal tail holding the rest.

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/mod"
)

func TestOpenDataDirWrittenWithALog(t *testing.T) {
	want := mod.NewDB(2, 0)
	if err := want.ApplyAll(
		mod.New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		mod.New(2, 2, geom.Of(0, -1.5), geom.Of(10, 10)),
		mod.New(3, 3, geom.Of(0, 0), geom.Of(-4, 7.25)),
		mod.ChDir(1, 4, geom.Of(0.5, 0.5)),
		mod.Bound(1, 5, 2.5),
		mod.New(1<<40+7, 6, geom.Of(-3, 1e-3), geom.Of(1e6, -1e6)),
		mod.ChDir(2, 7, geom.Of(2, 2)),
		mod.Terminate(3, 8),
		mod.Bound(2, 9, 4),
		mod.Bound(1, 10, 3),
		mod.ChDir(1, 11, geom.Of(-1, 0)),
	); err != nil {
		t.Fatal(err)
	}
	// Open writes (torn-tail truncation, GC, checkpoints): work on a copy.
	const fixture = "testdata/parent-datadir"
	dir := t.TempDir()
	err := filepath.WalkDir(fixture, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dir, strings.TrimPrefix(p, fixture))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	snapVersions := func() map[byte]int {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "g*-shard-*", "snap-*.bin"))
		if err != nil || len(files) != 2 {
			t.Fatalf("snapshot files %v, %v; want one per shard", files, err)
		}
		got := map[byte]int{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			got[data[4]]++
		}
		return got
	}
	if v := snapVersions(); v[2] != 2 {
		t.Fatalf("fixture snapshot versions %v, want two version-2 files", v)
	}

	eng, err := durable.Open(dir, durable.Config{})
	if err != nil {
		t.Fatalf("open the parent's data dir: %v", err)
	}
	replayed := 0
	for i, info := range eng.Recovery() {
		if !info.SnapshotLoaded {
			t.Errorf("shard %d: no snapshot loaded", i)
		}
		replayed += info.Replay.Applied
	}
	if replayed != 4 {
		t.Errorf("replayed %d journal entries past the snapshots, want 4", replayed)
	}
	if !eng.Snapshot().StateEqual(want) {
		t.Fatal("recovered state differs from the history the parent applied")
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v := snapVersions(); v[3] != 2 {
		t.Errorf("snapshot versions after the first checkpoint %v, want two version-3 files", v)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.Open(dir, durable.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Snapshot().StateEqual(want) {
		t.Fatal("state differs after the version-3 checkpoint and a reopen")
	}
}
