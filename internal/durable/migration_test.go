package durable_test

// Opening a data dir that a previous process left behind, two angles:
//
//   - every filesystem operation of an Open is faulted in every mode,
//     with the shard count kept and changed (a re-sharding Open, which
//     migrates the state into a new generation of stores);
//   - a data dir this build cannot read is refused, and the refused Open
//     writes nothing: a store in the JSON codec (what builds before the
//     binary codec wrote), one whose snapshots are version 2 (they
//     carried the update log), and a data dir where only one shard is
//     such a store and another is a readable one with a torn tail.

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/vfs"
)

// copyTree copies the directory tree at from into the fresh directory
// it returns. Open writes (GC, checkpoints), so fixtures and reference
// recoveries work on copies.
func copyTree(t *testing.T, from string) string {
	t.Helper()
	to := filepath.Join(t.TempDir(), "data")
	copyTreeTo(t, from, to)
	return to
}

// copyTreeTo copies the directory tree at from to to.
func copyTreeTo(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(to, strings.TrimPrefix(p, from))
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// treeOf maps every path under dir to its contents ("/" for a
// directory), so two calls tell whether anything under dir changed.
func treeOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			tree[p] = "/"
			return nil
		}
		data, err := os.ReadFile(p)
		tree[p] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// history is the update history of both fixtures below: the JSON one
// an old build wrote, and the binary one fixtureDir writes.
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

func historyDB(t *testing.T) *mod.DB {
	t.Helper()
	want := mod.NewDB(2, 0)
	if err := want.ApplyAll(history()...); err != nil {
		t.Fatal(err)
	}
	return want
}

// fixtureDir writes a two-shard binary data dir and returns it: the
// first seven updates of history, a checkpoint, the remaining four, then
// one more update whose record a crash cut five bytes short. Opening it
// therefore replays journal tails over snapshots and truncates a torn
// tail, and recovers history.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	eng, err := durable.Open(dir, durable.Config{Shards: 2, Dim: 2, Tau0: 0})
	if err != nil {
		t.Fatal(err)
	}
	us := history()
	if err := eng.ApplyAll(us[:7]...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	torn := mod.ChDir(2, 12, geom.Of(0.25, -8))
	if err := eng.ApplyAll(append(us[7:], torn)...); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, fmt.Sprintf("g0001-shard-%04d", eng.ShardOf(torn.O)), "wal-0000002.wal")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMigratingOpenFaultMatrix faults every filesystem operation of the
// Open of a binary data dir, in every mode, with the shard count kept
// and changed. Whatever the faulted Open did, a clean Open afterwards
// recovers the history at the asked shard count.
func TestMigratingOpenFaultMatrix(t *testing.T) {
	want := historyDB(t)
	fixture := fixtureDir(t)
	for _, shards := range []int{2, 4} {
		probe := errfs.New(vfs.OS{}, 0, errfs.FailOp)
		probeDir := copyTree(t, fixture)
		eng, err := durable.Open(probeDir, durable.Config{Shards: shards, FS: probe})
		if err != nil {
			t.Fatalf("P=%d: un-faulted open: %v", shards, err)
		}
		total := probe.Ops()
		if !eng.Snapshot().StateEqual(want) {
			t.Fatalf("P=%d: un-faulted open recovers the wrong state", shards)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		// The sweep covers what the Open must do: cut the torn tail, and
		// at a new shard count commit the new generation's root manifest.
		trace := strings.Join(probe.Trace(), "\n")
		if !strings.Contains(trace, "truncate(") {
			t.Fatalf("P=%d: the open truncated no torn tail:\n%s", shards, trace)
		}
		reshard := shards != 2
		if flip := "-> " + filepath.Join(probeDir, "MANIFEST") + ")"; strings.Contains(trace, flip) != reshard {
			t.Fatalf("P=%d: root manifest rewritten = %v, want %v:\n%s", shards, !reshard, reshard, trace)
		}
		t.Logf("P=%d: sweeping %d fault points x 3 modes", shards, total)

		for _, mode := range []errfs.Mode{errfs.FailOp, errfs.ShortWrite, errfs.FailSync} {
			for k := 1; k <= total; k++ {
				dir := copyTree(t, fixture)
				inj := errfs.New(vfs.OS{}, k, mode)
				if eng, err := durable.Open(dir, durable.Config{Shards: shards, FS: inj}); err == nil {
					// The fault hit a best-effort step (garbage collection).
					_ = eng.Close()
				}
				if !inj.Crashed() {
					t.Fatalf("P=%d mode=%v k=%d: injection never fired (%d ops)", shards, mode, k, inj.Ops())
				}

				rec, err := durable.Open(dir, durable.Config{Shards: shards})
				if err != nil {
					t.Fatalf("P=%d mode=%v k=%d: open after the faulted open: %v\ntrace:\n%s",
						shards, mode, k, err, traceOf(inj))
				}
				if rec.NumShards() != shards || !rec.Snapshot().StateEqual(want) {
					t.Fatalf("P=%d mode=%v k=%d: %d shards, or state differs from the history\ntrace:\n%s",
						shards, mode, k, rec.NumShards(), traceOf(inj))
				}
				if err := rec.Close(); err != nil {
					t.Fatalf("P=%d mode=%v k=%d: close: %v", shards, mode, k, err)
				}
			}
		}
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
func journalOnlyJSONStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	shard := filepath.Join(dir, "g0001-shard-0000")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	var lines []byte
	for _, u := range history()[:3] {
		line, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	for p, data := range map[string]string{
		filepath.Join(dir, "MANIFEST"):            `{"version":1,"dim":2,"shards":1,"generation":1}` + "\n",
		filepath.Join(shard, "MANIFEST"):          `{"version":1,"seq":1,"journal":"wal-0000001.jsonl","dim":2,"tau0":0}` + "\n",
		filepath.Join(shard, "wal-0000001.jsonl"): string(lines),
	} {
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// refusedUntouched opens dir at the given shard count (0 keeps the
// stored one) and wants a refusal whose error contains want. The
// refused Open may only make sure existing directories exist: every
// other filesystem operation in its trace fails the test, and so does
// any file or directory under dir that changed, appeared or went.
func refusedUntouched(t *testing.T, dir string, shards int, want string) {
	t.Helper()
	before := treeOf(t, dir)
	trace := errfs.New(vfs.OS{}, 0, errfs.FailOp)
	eng, err := durable.Open(dir, durable.Config{Shards: shards, FS: trace})
	if err == nil {
		_ = eng.Close()
		t.Fatalf("the data dir opened, holding %d objects", eng.Snapshot().Len())
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("the refusal does not say how to convert the store (want %q): %v", want, err)
	}
	for _, op := range trace.Trace() {
		if !strings.HasPrefix(op, "mkdirall(") {
			t.Errorf("the refused open wrote: %s", op)
		}
	}
	after := treeOf(t, dir)
	for p, data := range before {
		if got, ok := after[p]; !ok || got != data {
			t.Errorf("%s changed (%d bytes before, %d after)", p, len(data), len(got))
		}
	}
	for p := range after {
		if _, ok := before[p]; !ok {
			t.Errorf("%s appeared", p)
		}
	}
}

// TestOpenRefusesAJSONStore: a store in the JSON codec opens only as an
// error that says how to convert it, at its own and at another shard
// count, and the refused Open leaves every file as it found it.
func TestOpenRefusesAJSONStore(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dir    func(*testing.T) string
		shards int
	}{
		{"fixture P=2", func(t *testing.T) string { return copyTree(t, jsonFixture) }, 2},
		{"fixture re-sharded to P=4", func(t *testing.T) string { return copyTree(t, jsonFixture) }, 4},
		{"journal-only manifest", journalOnlyJSONStore, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusedUntouched(t, tc.dir(t), tc.shards, "f2b2e8f")
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
			refusedUntouched(t, copyTree(t, parentFixture), shards, "dfaf821")
		})
	}
	t.Run("OpenStore", func(t *testing.T) {
		dir := filepath.Join(copyTree(t, parentFixture), "g0001-shard-0000")
		before := treeOf(t, dir)
		if st, err := durable.OpenStore(vfs.OS{}, dir, durable.StoreOptions{}); err == nil {
			_ = st.Close()
			t.Fatal("a version-2 store opened")
		} else if !strings.Contains(err.Error(), "dfaf821") {
			t.Errorf("the refusal does not say how to convert the store: %v", err)
		}
		if after := treeOf(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
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
	fixture := fixtureDir(t)
	seg := filepath.Join(fixture, "g0001-shard-0000", "wal-0000002.wal")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	torn, err := os.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mod.ReplayTolerantBinary(mod.NewDB(2, 0), torn)
	_ = torn.Close()
	if err != nil || !st.TornTail {
		t.Fatalf("shard 0's segment has no torn tail to cut (%+v, %v)", st, err)
	}
	for _, refused := range []struct{ name, fixture, want string }{
		{"JSON shard 1", jsonFixture, "f2b2e8f"},
		{"version-2 shard 1", parentFixture, "dfaf821"},
	} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s P=%d", refused.name, shards), func(t *testing.T) {
				dir := copyTree(t, fixture)
				shard1 := filepath.Join(dir, "g0001-shard-0001")
				if err := os.RemoveAll(shard1); err != nil {
					t.Fatal(err)
				}
				copyTreeTo(t, filepath.Join(refused.fixture, "g0001-shard-0001"), shard1)
				refusedUntouched(t, dir, shards, refused.want)
			})
		}
	}
}
