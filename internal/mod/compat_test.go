package mod

// Compatibility with snapshots written before format version 3, and the
// property version 3 exists for: a snapshot is a function of the state
// (O, T, tau), not of the update history that produced it.
//
// testdata/snapshot-v2.bin and testdata/snapshot-with-log.json were
// written by the last commit whose DB kept an applied-update log
// (ea2cb6c), with SaveBinary and SaveJSON, from the state fixtureUpdates
// builds. internal/durable/testdata/parent-datadir holds the same
// history as a two-shard data directory.

import (
	"bytes"
	"encoding/binary"
	"errors"
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

func TestLoadSnapshotsWrittenWithALog(t *testing.T) {
	want := NewDB(2, 0)
	must(t, want.ApplyAll(fixtureUpdates()...))

	v2 := readFixture(t, "snapshot-v2.bin")
	if v2[4] != 2 {
		t.Fatalf("fixture is version %d, want 2", v2[4])
	}
	fromBin, err := LoadBinary(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("LoadBinary(v2 fixture): %v", err)
	}
	js := readFixture(t, "snapshot-with-log.json")
	if !strings.Contains(string(js), `"log"`) {
		t.Fatal("JSON fixture carries no log")
	}
	fromJSON, err := LoadJSON(bytes.NewReader(js))
	if err != nil {
		t.Fatalf("LoadJSON(fixture with log): %v", err)
	}
	for name, got := range map[string]*DB{"v2 binary": fromBin, "JSON with log": fromJSON} {
		if !got.StateEqual(want) {
			t.Errorf("%s fixture loads to a different state", name)
		}
		var v3 bytes.Buffer
		must(t, got.SaveBinary(&v3))
		if v3.Bytes()[4] != 3 {
			t.Errorf("%s: re-saved as version %d, want 3", name, v3.Bytes()[4])
		}
		if v3.Len() >= len(v2) {
			t.Errorf("%s: version 3 is %d bytes, the version 2 file with its log %d", name, v3.Len(), len(v2))
		}
		back, err := LoadBinary(&v3)
		if err != nil || !back.StateEqual(want) {
			t.Errorf("%s: version 3 re-save does not load back to the same state (%v)", name, err)
		}
		// The loaded database is live: it continues from the fixture's tau.
		if err := got.Apply(ChDir(2, 12, geom.Of(0, 0))); err != nil {
			t.Errorf("%s: update after load: %v", name, err)
		}
	}
}

// TestLoadBinaryV2Truncations cuts the version-2 fixture at every
// length, which walks the cut through the old log section byte by byte.
// As it stands on disk a cut file fails the CRC (or the minimum-length
// check); with the CRC recomputed over the cut body — corruption the
// checksum cannot see — the decoder has to notice by itself that it ran
// out of bytes. Neither may panic or load.
func TestLoadBinaryV2Truncations(t *testing.T) {
	v2 := readFixture(t, "snapshot-v2.bin")
	for n := 0; n < len(v2); n++ {
		_, err := LoadBinary(bytes.NewReader(v2[:n]))
		if err == nil || !(strings.Contains(err.Error(), "checksum") || strings.Contains(err.Error(), "truncated")) {
			t.Fatalf("fixture cut to %d of %d bytes: %v, want a checksum or truncation error", n, len(v2), err)
		}
	}
	body := v2[BinaryJournalHeaderLen : len(v2)-4]
	for n := 0; n < len(body); n++ {
		cut := append([]byte(nil), v2[:BinaryJournalHeaderLen+n]...)
		cut = binary.LittleEndian.AppendUint32(cut, crc32.Checksum(body[:n], crcTable))
		if _, err := LoadBinary(bytes.NewReader(cut)); !errors.Is(err, errTruncated) {
			t.Fatalf("body cut to %d of %d bytes, CRC recomputed: %v, want errTruncated", n, len(body), err)
		}
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
	a.Reset()
	b.Reset()
	must(t, once.SaveJSON(&a))
	must(t, often.SaveJSON(&b))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("SaveJSON: %d bytes after 1 re-declaration, %d after 1000; want identical bytes", a.Len(), b.Len())
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
