package mod

// The property snapshot format version 3 exists for: a snapshot is a
// function of the state (O, T, tau), not of the update history that
// produced it.
//
// testdata/snapshot-v2.bin was written by the last commit whose DB kept
// an applied-update log (ea2cb6c), with SaveBinary, from the state
// fixtureUpdates builds; this build refuses it
// (TestLoadSnapshotsWrittenWithALog). internal/durable/testdata/
// parent-datadir holds the same history as a two-shard data directory.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
)

func fixtureUpdates() []Update {
	return []Update{
		New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		New(2, 2, geom.Of(0, -1.5), geom.Of(10, 10)),
		New(3, 3, geom.Of(0, 0), geom.Of(-4, 7.25)),
		ChDir(1, 4, geom.Of(0.5, 0.5)),
		Bound(1, 5, 2.5),
		New(1<<40+7, 6, geom.Of(-3, 1e-3), geom.Of(1e6, -1e6)),
		ChDir(2, 7, geom.Of(2, 2)),
		Terminate(3, 8),
		Bound(2, 9, 4),
		Bound(1, 10, 3),
		ChDir(1, 11, geom.Of(-1, 0)),
	}
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadSnapshotsWrittenWithALog: the version-2 fixture, an intact
// file (its CRC holds) that carries an update log, is refused with the
// conversion, not read; the state it holds, saved by this build, is a
// version-3 snapshot without the log, smaller, that loads back.
func TestLoadSnapshotsWrittenWithALog(t *testing.T) {
	want := NewDB(2, 0)
	must(t, want.ApplyAll(fixtureUpdates()...))

	v2 := readFixture(t, "snapshot-v2.bin")
	if v2[4] != 2 {
		t.Fatalf("fixture is version %d, want 2", v2[4])
	}
	body := v2[BinaryJournalHeaderLen : len(v2)-4]
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(v2[len(v2)-4:]) {
		t.Fatal("fixture fails its own checksum")
	}
	if db, err := LoadBinary(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), "dfaf821") {
		t.Fatalf("LoadBinary(v2 fixture) = %v, %v; want a refusal naming the conversion", db, err)
	}

	var v3 bytes.Buffer
	must(t, want.SaveBinary(&v3))
	if v3.Bytes()[4] != 3 {
		t.Errorf("saved as version %d, want 3", v3.Bytes()[4])
	}
	if v3.Len() >= len(v2) {
		t.Errorf("version 3 is %d bytes, the version 2 file with its log %d", v3.Len(), len(v2))
	}
	back, err := LoadBinary(&v3)
	if err != nil || !back.StateEqual(want) {
		t.Fatalf("version 3 does not load back to the same state (%v)", err)
	}
	// The loaded database is live: it continues from the fixture's tau.
	if err := back.Apply(ChDir(2, 12, geom.Of(0, 0))); err != nil {
		t.Errorf("update after load: %v", err)
	}
}

// TestSnapshotIsAFunctionOfState: re-declaring a speed bound that is
// already in force changes nothing but tau, so 1,000 of them followed by
// nothing else must leave the serialised snapshot and the cost of
// DB.Snapshot where one of them leaves it. With an update log in the
// database both grew by a record per update.
func TestSnapshotIsAFunctionOfState(t *testing.T) {
	redeclare := func(n int) *DB {
		db := NewDB(2, 0)
		must(t, db.ApplyAll(fixtureUpdates()...))
		for i := 0; i < n; i++ {
			must(t, db.Apply(Bound(1, 12+float64(i)*1000/float64(n), 3)))
		}
		must(t, db.Apply(Bound(1, 2000, 3)))
		return db
	}
	once, often := redeclare(1), redeclare(1000)
	var a, b bytes.Buffer
	must(t, once.SaveBinary(&a))
	must(t, often.SaveBinary(&b))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("SaveBinary: %d bytes after 1 re-declaration, %d after 1000; want identical bytes", a.Len(), b.Len())
	}
	snapshotBytes := func(db *DB) uint64 {
		db.Snapshot() // the epoch snapshot is cached from here on
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			db.Snapshot()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if x, y := snapshotBytes(once), snapshotBytes(often); y > x+x/10 {
		t.Errorf("Snapshot() allocates %d B after 1 re-declaration, %d B after 1000; want flat", x, y)
	}
}
