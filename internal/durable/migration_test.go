package durable_test

// Opening a data dir that a previous process left behind and this
// build cannot read: the Open is refused, and the refused Open writes
// nothing. A store in the JSON codec (what builds before the binary
// codec wrote), one whose snapshots are version 2 (they carried the
// update log), and a data dir where only one shard is such a store and
// another is a readable one with a torn tail. Each is loaded into a
// vfs.Mem. (The durability driver's faulted-open configurations fault
// every operation of an Open that succeeds.)

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/vfs"
)

// load copies the directory tree at from, on disk, to the path to in
// mem.
func load(t *testing.T, mem *vfs.Mem, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(p string, d fs.DirEntry, err error) error {
		dst := path.Join(to, filepath.ToSlash(strings.TrimPrefix(p, from)))
		if err != nil || d.IsDir() {
			return errors.Join(err, mem.MkdirAll(dst))
		}
		data, err := os.ReadFile(p)
		return errors.Join(err, vfs.WriteFileAtomic(mem, dst, data))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// history is the update history of the JSON fixture an old build
// wrote, of the binary one fixtureDir writes, and of the driver's
// faulted-open fixture.
func history() []mod.Update {
	return []mod.Update{
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
	}
}

// jsonFixture is a data dir the JSON writer of commit 1cd52ea wrote with
// two shards and dimension 2: the first seven updates of history, a
// checkpoint, the next five, Close; then the last line of shard 1's
// segment (the update at tau 12) cut five bytes short, as a crash
// mid-append leaves it.
const jsonFixture = "testdata/json-datadir"

// journalOnlyJSONStore writes a one-shard data dir whose store never
// checkpointed under the JSON codec: its manifest names a .jsonl journal
// and no snapshot.
func journalOnlyJSONStore(t *testing.T) *vfs.Mem {
	t.Helper()
	var lines []byte
	for _, u := range history()[:3] {
		line, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	mem, shard := vfs.NewMem(), path.Join(root, "g0001-shard-0000")
	for p, data := range map[string]string{
		path.Join(root, "MANIFEST"):           `{"version":1,"dim":2,"shards":1,"generation":1}` + "\n",
		path.Join(shard, "MANIFEST"):          `{"version":1,"seq":1,"journal":"wal-0000001.jsonl","dim":2,"tau0":0}` + "\n",
		path.Join(shard, "wal-0000001.jsonl"): string(lines),
	} {
		if err := errors.Join(mem.MkdirAll(shard), vfs.WriteFileAtomic(mem, p, []byte(data))); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// refusedUntouched opens the data dir in mem at the given shard count
// (0 keeps the stored one) and wants a refusal whose error contains want
// and names the refused shard's directory, under one "durable: "
// prefix. The refused Open may only make sure existing directories
// exist, and mem must hold what it held before.
func refusedUntouched(t *testing.T, mem *vfs.Mem, shards int, want string) {
	t.Helper()
	before, trace := memTree(mem, "/"), errfs.New(mem, 0, errfs.FailOp)
	eng, err := durable.Open(root, durable.Config{Shards: shards, FS: trace})
	if err == nil {
		_ = eng.Close()
		t.Fatalf("the data dir opened, holding %d objects", eng.Snapshot().Len())
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("the refusal does not say how to convert the store (want %q): %v", want, err)
	}
	if strings.Count(err.Error(), "durable: ") != 1 || strings.Count(err.Error(), "-shard-") != 1 {
		t.Errorf("the refusal does not name its prefix and the shard's directory once each: %v", err)
	}
	for _, op := range trace.Trace() {
		if !strings.HasPrefix(op, "mkdirall(") {
			t.Errorf("the refused open wrote: %s", op)
		}
	}
	if memTree(mem, "/") != before {
		t.Error("the refused open changed the data dir")
	}
}

// fixture loads the data dir at dir on disk into a fresh Mem.
func fixture(t *testing.T, dir string) *vfs.Mem {
	mem := vfs.NewMem()
	load(t, mem, dir, root)
	return mem
}

// TestOpenRefusesAJSONStore: a store in the JSON codec opens only as an
// error that says how to convert it, at its own and at another shard
// count, and the refused Open leaves every file as it found it.
func TestOpenRefusesAJSONStore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mem    func(*testing.T) *vfs.Mem
		shards int
	}{
		{"fixture P=2", func(t *testing.T) *vfs.Mem { return fixture(t, jsonFixture) }, 2},
		{"fixture re-sharded to P=4", func(t *testing.T) *vfs.Mem { return fixture(t, jsonFixture) }, 4},
		{"journal-only manifest", journalOnlyJSONStore, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusedUntouched(t, tc.mem(t), tc.shards, "f2b2e8f")
		})
	}
}

// parentFixture is a data dir the last commit whose snapshots carried
// the applied-update log (ea2cb6c) wrote: two shards, each a version-2
// snapshot taken after the first seven updates of history plus a
// journal tail holding the rest (see internal/mod/compat_test.go).
const parentFixture = "testdata/parent-datadir"

// TestOpenRefusesAVersion2Store: a data dir whose snapshots are version
// 2 is refused with the conversion, at its own and at another shard
// count, with every file as it was; OpenStore refuses one of its shard
// stores the same way.
func TestOpenRefusesAVersion2Store(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(parentFixture, "g0001-shard-*", "snap-*.bin"))
	if err != nil || len(files) != 2 {
		t.Fatalf("snapshot files %v, %v; want one per shard", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil || len(data) < 5 || data[4] != 2 {
			t.Fatalf("%s is not a version-2 snapshot (%v)", f, err)
		}
	}
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("P=%d", shards), func(t *testing.T) {
			refusedUntouched(t, fixture(t, parentFixture), shards, "dfaf821")
		})
	}
	t.Run("OpenStore", func(t *testing.T) {
		mem := fixture(t, parentFixture)
		before := memTree(mem, "/")
		if st, err := durable.OpenStore(mem, path.Join(root, "g0001-shard-0000"), durable.StoreOptions{}); err == nil {
			_ = st.Close()
			t.Fatal("a version-2 store opened")
		} else if !strings.Contains(err.Error(), "dfaf821") {
			t.Errorf("the refusal does not say how to convert the store: %v", err)
		}
		if memTree(mem, "/") != before {
			t.Error("the refused OpenStore changed the store")
		}
	})
}

// TestOpenRefusesAMixedDataDir: shard 0 is a binary store whose segment
// ends in a torn record, which opening it would cut away; shard 1 is a
// store this build refuses. The Open is refused before it recovers
// shard 0, at the stored shard count and re-sharding, so the torn tail
// is still there afterwards.
func TestOpenRefusesAMixedDataDir(t *testing.T) {
	for _, refused := range []struct{ name, fixture, want string }{
		{"JSON shard 1", jsonFixture, "f2b2e8f"},
		{"version-2 shard 1", parentFixture, "dfaf821"},
	} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s P=%d", refused.name, shards), func(t *testing.T) {
				// The driver's faulted-open fixture, with shard 0's segment
				// (also) cut five bytes short and shard 1 replaced.
				r := newRun(t, drive{shards: 2}, 0)
				r.inj = errfs.New(r.mem, 0, errfs.FailOp)
				r.fixture()
				seg, shard1 := path.Join(root, "g0001-shard-0000", "wal-0000002.wal"), path.Join(root, "g0001-shard-0001")
				data, err := vfs.ReadFile(r.mem, seg)
				if err == nil {
					err = r.mem.Truncate(seg, int64(len(data)-5))
				}
				if st, rerr := mod.ReplayTolerantBinary(mod.NewDB(2, 0), strings.NewReader(string(data[:len(data)-5]))); err != nil || rerr != nil || !st.TornTail {
					t.Fatalf("shard 0's segment has no torn tail to cut (%+v, %v, %v)", st, err, rerr)
				}
				names, _ := r.mem.ReadDir(shard1)
				for _, n := range names {
					_ = r.mem.Remove(path.Join(shard1, n))
				}
				load(t, r.mem, filepath.Join(refused.fixture, "g0001-shard-0001"), shard1)
				refusedUntouched(t, r.mem, shards, refused.want)
			})
		}
	}
}
