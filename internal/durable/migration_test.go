package durable_test

// Legacy import: a store written in the JSON codec (snap-N.json +
// wal-N.jsonl, the format of builds before the binary codec) opens like
// any other, is never appended to, and is binary when Open returns.
// Three angles:
//
//   - a fixture the parent commit's JSON writer produced
//     (testdata/json-datadir), opened as is and re-sharded;
//   - every crash point of the matrix script, each crashed binary
//     directory transcoded to the JSON codec so the JSON readers meet
//     every crash shape;
//   - every filesystem operation of the importing Open itself faulted
//     in every mode.

import (
	"bytes"
	"encoding/json"
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
	return to
}

// storeFiles lists the snapshot and segment files under dir by codec.
func storeFiles(t *testing.T, dir string) (jsonFiles, binFiles []string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(p) {
		case ".jsonl", ".json":
			jsonFiles = append(jsonFiles, p)
		case ".wal", ".bin":
			binFiles = append(binFiles, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return jsonFiles, binFiles
}

// requireBinaryOnly asserts the import left no JSON file behind.
func requireBinaryOnly(t *testing.T, dir, when string) {
	t.Helper()
	jf, bf := storeFiles(t, dir)
	if len(jf) != 0 {
		t.Fatalf("%s: JSON files survive: %v", when, jf)
	}
	if len(bf) == 0 {
		t.Fatalf("%s: no binary files", when)
	}
}

// requireNoJSONWrites asserts on the injector's operation trace that no
// run opened a JSON file for appending, wrote to one, or created one.
func requireNoJSONWrites(t *testing.T, inj *errfs.FS, when string) {
	t.Helper()
	for _, op := range inj.Trace() {
		name, _, _ := strings.Cut(op, "(")
		if name != "append" && name != "write" && name != "create" && name != "truncate" {
			continue
		}
		if strings.Contains(op, ".json") {
			t.Fatalf("%s: the store wrote to a JSON file: %s\ntrace:\n%s", when, op, traceOf(inj))
		}
	}
}

// transcodeToJSON rewrites a binary data dir in the JSON codec, the way
// the JSON writer this repository no longer has would have left it:
// snapshots through SaveJSON, journal records through
// json.Marshal(Update) one per line, manifests naming the .json/.jsonl
// files. A torn binary tail becomes an unterminated JSON line.
func transcodeToJSON(t *testing.T, dir string) {
	t.Helper()
	_, binFiles := storeFiles(t, dir)
	for _, p := range binFiles {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		var to string
		if filepath.Ext(p) == ".bin" {
			db, err := mod.LoadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("transcode %s: %v", p, err)
			}
			if err := db.SaveJSON(&out); err != nil {
				t.Fatal(err)
			}
			to = strings.TrimSuffix(p, ".bin") + ".json"
		} else {
			// The tolerant reader finds the end of the complete records;
			// the strict batch decoder (same framing, its own magic)
			// returns them all, including those a replay would skip.
			st, err := mod.ReplayTolerantBinary(mod.NewDB(2, -1), bytes.NewReader(data))
			if err != nil {
				t.Fatalf("transcode %s: %v", p, err)
			}
			var wire bytes.Buffer
			if err := mod.EncodeUpdatesBinary(&wire, nil); err != nil {
				t.Fatal(err)
			}
			if st.GoodBytes > 0 {
				wire.Write(data[mod.BinaryJournalHeaderLen:st.GoodBytes])
			}
			us, err := mod.DecodeUpdatesBinary(&wire)
			if err != nil {
				t.Fatalf("transcode %s: %v", p, err)
			}
			for _, u := range us {
				line, err := json.Marshal(u)
				if err != nil {
					t.Fatal(err)
				}
				out.Write(line)
				out.WriteByte('\n')
			}
			if st.TornTail {
				out.WriteString(`{"kind":"chdir","oid":1,"ta`)
			}
			to = strings.TrimSuffix(p, ".wal") + ".jsonl"
		}
		if err := os.WriteFile(to, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "g*-shard-*", "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range manifests {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.ReplaceAll(data, []byte(`.bin"`), []byte(`.json"`))
		data = bytes.ReplaceAll(data, []byte(`.wal"`), []byte(`.jsonl"`))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// jsonFixture is the data dir the parent commit (1cd52ea) wrote with
// two shards, dimension 2 and its JSON format option: the first seven
// updates below, a checkpoint, the next five, Close; then the last line
// of shard 1's segment (the update at tau 12) cut five bytes short, as a
// crash mid-append leaves it. Recovery therefore yields the first
// eleven.
const jsonFixture = "testdata/json-datadir"

func jsonFixtureWant(t *testing.T) *mod.DB {
	t.Helper()
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
	return want
}

func TestOpenJSONDataDir(t *testing.T) {
	for _, shards := range []int{2, 4} {
		want := jsonFixtureWant(t)
		dir := copyTree(t, jsonFixture)
		if jf, bf := storeFiles(t, dir); len(jf) != 4 || len(bf) != 0 {
			t.Fatalf("fixture holds %v and %v, want a JSON pair per shard and nothing binary", jf, bf)
		}
		trace := errfs.New(vfs.OS{}, 0, errfs.FailOp)
		eng, err := durable.Open(dir, durable.Config{Shards: shards, FS: trace})
		if err != nil {
			t.Fatalf("P=%d: open the JSON data dir: %v", shards, err)
		}
		requireNoJSONWrites(t, trace, "importing open")
		requireBinaryOnly(t, dir, "when Open returns")
		if eng.NumShards() != shards {
			t.Fatalf("P=%d: engine has %d shards", shards, eng.NumShards())
		}
		if shards == 2 {
			replayed, torn := 0, 0
			for i, info := range eng.Recovery() {
				if !info.SnapshotLoaded {
					t.Errorf("shard %d: no snapshot loaded", i)
				}
				replayed += info.Replay.Applied
				if info.Replay.TornTail {
					torn++
				}
			}
			if replayed != 4 || torn != 1 {
				t.Errorf("replayed %d entries with %d torn tails, want 4 and 1", replayed, torn)
			}
		}
		if !eng.Snapshot().StateEqual(want) {
			t.Fatalf("P=%d: recovered state differs from the history the parent applied", shards)
		}
		// The imported store is live: an update lands in a binary segment.
		if err := eng.Apply(mod.ChDir(2, 12, geom.Of(0.25, -8))); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if err := want.Apply(mod.ChDir(2, 12, geom.Of(0.25, -8))); err != nil {
			t.Fatal(err)
		}

		rec, err := durable.Open(dir, durable.Config{})
		if err != nil {
			t.Fatalf("P=%d: reopen: %v", shards, err)
		}
		if !rec.Snapshot().StateEqual(want) {
			t.Fatalf("P=%d: state differs after the import and a reopen", shards)
		}
		replayed := 0
		for _, info := range rec.Recovery() {
			replayed += info.Replay.Applied
		}
		if replayed != 1 {
			t.Errorf("P=%d: reopen replayed %d entries, want only the update applied after the import", shards, replayed)
		}
		requireBinaryOnly(t, dir, "after the reopen")
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMatrixJSONToBinaryMigration crashes the matrix script at
// every mutating filesystem operation, transcodes what the crash left
// to the JSON codec, and opens that: the import must recover the state
// the binary directory recovers, leave only binary files, and stay
// appendable.
func TestCrashMatrixJSONToBinaryMigration(t *testing.T) {
	us := stream10()

	probe := errfs.New(vfs.OS{}, 0, errfs.FailOp)
	probeRes := runScript(t, filepath.Join(t.TempDir(), "data"), probe, us, matrixConfig(probe), false)
	total := probe.Ops()
	if probeRes.acked != len(us) || probe.Crashed() {
		t.Fatalf("clean probe run acked %d/%d updates", probeRes.acked, len(us))
	}
	t.Logf("sweeping %d crash points", total)

	imported := 0
	for k := 1; k <= total; k++ {
		dir := filepath.Join(t.TempDir(), "data")
		inj := errfs.New(vfs.OS{}, k, errfs.FailOp)
		res := runScript(t, dir, inj, us, matrixConfig(inj), false)
		if !inj.Crashed() {
			t.Fatalf("k=%d: injection never fired (%d ops)", k, inj.Ops())
		}

		// A crash at the very first operation leaves no directory at all.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}

		// Reference: what the binary directory recovers to.
		ref, err := durable.Open(copyTree(t, dir), matrixConfig(vfs.OS{}))
		if err != nil {
			t.Fatalf("k=%d: binary recovery failed: %v\ntrace:\n%s", k, err, traceOf(inj))
		}
		refDB := ref.Snapshot()
		if err := ref.Close(); err != nil {
			t.Fatalf("k=%d: close binary recovery: %v", k, err)
		}
		j := prefixLen(refDB.Tau(), us)
		if j < res.acked || j > res.attempted || !refDB.StateEqual(prefixDB(t, us, j)) {
			t.Fatalf("k=%d: binary recovery not a valid prefix (tau %g, acked %d, attempted %d)",
				k, refDB.Tau(), res.acked, res.attempted)
		}

		transcodeToJSON(t, dir)
		jf, bf := storeFiles(t, dir)
		if len(bf) != 0 {
			t.Fatalf("k=%d: transcoding left binary files: %v", k, bf)
		}
		if len(jf) > 0 {
			imported++
		}
		trace := errfs.New(vfs.OS{}, 0, errfs.FailOp)
		eng, err := durable.Open(dir, matrixConfig(trace))
		if err != nil {
			t.Fatalf("k=%d: import of the JSON store failed: %v\ntrace:\n%s", k, err, traceOf(inj))
		}
		requireNoJSONWrites(t, trace, "importing open")
		if !eng.Snapshot().StateEqual(refDB) {
			t.Fatalf("k=%d: the JSON store recovers differently from the binary one\ntrace:\n%s", k, traceOf(inj))
		}
		if len(jf) > 0 {
			requireBinaryOnly(t, dir, "when Open returns")
		}

		// Append-safety across another clean cycle.
		if err := eng.Apply(mod.New(99, 100, us[0].A, us[0].B)); err != nil {
			t.Fatalf("k=%d: apply after the import: %v", k, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("k=%d: close after the import: %v", k, err)
		}
		rec, err := durable.Open(dir, matrixConfig(vfs.OS{}))
		if err != nil {
			t.Fatalf("k=%d: post-import recovery failed: %v", k, err)
		}
		if rec.Tau() != 100 {
			t.Fatalf("k=%d: post-import tau %g, want 100", k, rec.Tau())
		}
		requireBinaryOnly(t, dir, "after the reopen")
		if err := rec.Close(); err != nil {
			t.Fatalf("k=%d: final close: %v", k, err)
		}
	}
	if imported < total/2 {
		t.Fatalf("only %d of %d crash points left a JSON store to import", imported, total)
	}
}

// TestMigratingOpenFaultMatrix faults every filesystem operation of the
// Open that imports the JSON fixture, in every mode, with the shard
// count kept and changed. Whatever the faulted Open did, a clean Open
// afterwards recovers the state the un-faulted import recovers and
// ends binary-only, and no run writes to a JSON file.
func TestMigratingOpenFaultMatrix(t *testing.T) {
	want := jsonFixtureWant(t)
	for _, shards := range []int{2, 4} {
		probe := errfs.New(vfs.OS{}, 0, errfs.FailOp)
		eng, err := durable.Open(copyTree(t, jsonFixture), durable.Config{Shards: shards, FS: probe})
		if err != nil {
			t.Fatalf("P=%d: un-faulted import: %v", shards, err)
		}
		total := probe.Ops()
		if !eng.Snapshot().StateEqual(want) {
			t.Fatalf("P=%d: un-faulted import recovers the wrong state", shards)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if total < 20 {
			t.Fatalf("P=%d: the importing Open made only %d filesystem operations", shards, total)
		}
		t.Logf("P=%d: sweeping %d fault points x 3 modes", shards, total)

		for _, mode := range []errfs.Mode{errfs.FailOp, errfs.ShortWrite, errfs.FailSync} {
			for k := 1; k <= total; k++ {
				dir := copyTree(t, jsonFixture)
				inj := errfs.New(vfs.OS{}, k, mode)
				if eng, err := durable.Open(dir, durable.Config{Shards: shards, FS: inj}); err == nil {
					// The fault hit a best-effort step (garbage collection).
					_ = eng.Close()
				}
				if !inj.Crashed() {
					t.Fatalf("P=%d mode=%v k=%d: injection never fired (%d ops)", shards, mode, k, inj.Ops())
				}
				requireNoJSONWrites(t, inj, "faulted import")

				rec, err := durable.Open(dir, durable.Config{Shards: shards})
				if err != nil {
					t.Fatalf("P=%d mode=%v k=%d: open after the faulted import: %v\ntrace:\n%s",
						shards, mode, k, err, traceOf(inj))
				}
				if !rec.Snapshot().StateEqual(want) {
					t.Fatalf("P=%d mode=%v k=%d: state differs from the un-faulted import\ntrace:\n%s",
						shards, mode, k, traceOf(inj))
				}
				if err := rec.Close(); err != nil {
					t.Fatalf("P=%d mode=%v k=%d: close: %v", shards, mode, k, err)
				}
				requireBinaryOnly(t, dir, "after the clean open")
			}
		}
	}
}
