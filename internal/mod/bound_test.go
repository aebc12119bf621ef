package mod

// Speed-bound (KindBound) semantics and persistence: apply-time
// validation, JSON and binary snapshot round-trips, version-1 binary
// snapshot compatibility (no bounds section), and bounds surviving
// Merge/Partition and epoch snapshots.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

func boundedDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(2, 0)
	if err := db.ApplyAll(
		New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		New(2, 2, geom.Of(0, 1), geom.Of(10, 0)),
		Bound(1, 3, 2.5),
		Bound(2, 4, 0),
		ChDir(1, 5, geom.Of(0, 2)),
		Bound(1, 6, 3),
	); err != nil {
		t.Fatalf("apply: %v", err)
	}
	return db
}

func TestBoundApplySemantics(t *testing.T) {
	db := boundedDB(t)
	if v, ok := db.SpeedBound(1); !ok || v != 3 {
		t.Fatalf("SpeedBound(1) = %g,%v; want 3,true (revisions win)", v, ok)
	}
	if v, ok := db.SpeedBound(2); !ok || v != 0 {
		t.Fatalf("SpeedBound(2) = %g,%v; want 0,true (zero bound is legal)", v, ok)
	}
	if _, ok := db.SpeedBound(9); ok {
		t.Fatal("SpeedBound(9) reported a bound for an unknown object")
	}

	rejected := []Update{
		Bound(9, 7, 1),                                    // unknown object
		Bound(1, 7, -1),                                   // negative vmax
		Bound(1, 7, math.Inf(1)),                          // non-finite vmax
		Bound(1, 7, math.NaN()),                           // non-finite vmax
		{Kind: KindBound, O: 1, Tau: 7},                   // missing vmax
		{Kind: KindBound, O: 1, Tau: 7, A: geom.Of(1, 2)}, // wrong arity
		{Kind: KindBound, O: 1, Tau: 7, A: geom.Of(1), B: geom.Of(0)}, // stray position
		Bound(1, 6, 4), // chronology violation
	}
	for _, u := range rejected {
		if err := db.Apply(u); err == nil {
			t.Errorf("Apply(%s) succeeded, want rejection", u)
		}
	}
	if v, _ := db.SpeedBound(1); v != 3 {
		t.Fatalf("rejected updates disturbed the bound: got %g", v)
	}

	// Bounds survive termination — the alibi question is about the past.
	if err := db.Apply(Terminate(1, 8)); err != nil {
		t.Fatalf("terminate: %v", err)
	}
	if v, ok := db.SpeedBound(1); !ok || v != 3 {
		t.Fatalf("bound lost on terminate: %g,%v", v, ok)
	}
}

func TestBoundSnapshotRoundTrips(t *testing.T) {
	db := boundedDB(t)

	var bin bytes.Buffer
	if err := db.SaveBinary(&bin); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	fromBin, err := LoadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("LoadBinary: %v", err)
	}
	if !fromBin.StateEqual(db) {
		t.Fatal("binary round-trip not StateEqual (bounds compared)")
	}
	if v, ok := fromBin.SpeedBound(1); !ok || v != 3 {
		t.Fatalf("binary round-trip bound = %g,%v; want 3,true", v, ok)
	}

	// A bound for an object the snapshot doesn't carry is rejected.
	var lone bytes.Buffer
	loneDB := NewDB(2, 0)
	if err := loneDB.ApplyAll(New(1, 1, geom.Of(1, 0), geom.Of(0, 0)), Bound(1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := loneDB.SaveBinary(&lone); err != nil {
		t.Fatal(err)
	}
	raw := lone.Bytes()
	// Flip the bound's OID varint (last 9 bytes before the CRC are
	// "oid varint | vmax bits"): point it at a nonexistent object.
	corrupt := append([]byte(nil), raw...)
	body := corrupt[BinaryJournalHeaderLen : len(corrupt)-4]
	body[len(body)-9] = 0x63 // oid 99
	binary.LittleEndian.PutUint32(corrupt[len(corrupt)-4:],
		crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := LoadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("LoadBinary accepted a bound for an unknown object")
	}
}

// TestBinarySnapshotOldVersionsCompat: the layouts that carried the
// update log, built by hand from today's writer, are refused with an
// error naming the conversion (a version-3 body of a bound-free database
// ends in a zero bounds count; version 1 had the update log in that
// place and no bounds section, version 2 the log followed by the
// bounds). The file written by the last commit that kept the log is
// TestLoadSnapshotsWrittenWithALog's. A version this build does not
// know is refused too.
func TestBinarySnapshotOldVersionsCompat(t *testing.T) {
	db := NewDB(2, 0)
	us := []Update{
		New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		ChDir(1, 2, geom.Of(0, 1)),
	}
	if err := db.ApplyAll(us...); err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := db.SaveBinary(&v3); err != nil {
		t.Fatal(err)
	}
	raw := v3.Bytes()
	body := raw[BinaryJournalHeaderLen : len(raw)-4]
	if raw[4] != 3 || body[len(body)-1] != 0 {
		t.Fatalf("expected version 3 with a trailing zero bounds count, got version %d, last byte %#x", raw[4], body[len(body)-1])
	}
	v1body := append([]byte(nil), body[:len(body)-1]...)
	v1body = binary.AppendUvarint(v1body, uint64(len(us)))
	for _, u := range us {
		v1body = appendUpdatePayload(v1body, u)
	}
	reframe := func(version byte, body []byte) []byte {
		out := append(append([]byte(nil), raw[:4]...), version)
		out = append(out, body...)
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	}
	for name, old := range map[string][]byte{
		"v1 by hand": reframe(1, v1body),
		"v2 by hand": reframe(2, append(append([]byte(nil), v1body...), 0)),
	} {
		_, err := LoadBinary(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), "dfaf821") {
			t.Errorf("%s: LoadBinary = %v, want a refusal naming the conversion", name, err)
		}
	}
	if _, err := LoadBinary(bytes.NewReader(reframe(4, body))); err == nil || !strings.Contains(err.Error(), "version 4") {
		t.Errorf("version 4: LoadBinary = %v, want a refusal naming the version", err)
	}
	if got, err := LoadBinary(bytes.NewReader(reframe(3, body))); err != nil || !got.StateEqual(db) {
		t.Errorf("version 3 re-framed: %v, or a different state", err)
	}
}

func TestBoundMergePartitionSnapEqual(t *testing.T) {
	db := boundedDB(t)
	parts, err := db.Partition(3, func(o OID) int { return int(o) % 3 })
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if v, ok := parts[1].SpeedBound(1); !ok || v != 3 {
		t.Fatalf("partition lost o1's bound: %g,%v", v, ok)
	}
	if _, ok := parts[2].SpeedBound(1); ok {
		t.Fatal("bound routed to the wrong shard")
	}
	back, err := Merge(parts...)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if !back.StateEqual(db) {
		t.Fatal("Partition+Merge not StateEqual (bounds compared)")
	}

	snap := db.EpochSnapshot()
	if v, ok := snap.SpeedBound(1); !ok || v != 3 {
		t.Fatalf("epoch snapshot bound = %g,%v; want 3,true", v, ok)
	}
	// A new bound bumps the epoch, so the next snapshot sees it.
	if err := db.Apply(Bound(2, 10, 7)); err != nil {
		t.Fatal(err)
	}
	snap2 := db.EpochSnapshot()
	if snap2.Epoch() == snap.Epoch() {
		t.Fatal("bound update did not bump the epoch")
	}
	if v, ok := snap2.SpeedBound(2); !ok || v != 7 {
		t.Fatalf("fresh snapshot bound = %g,%v; want 7,true", v, ok)
	}

	other := boundedDB(t)
	if !db.StateEqual(db.Snapshot()) {
		t.Fatal("StateEqual(self snapshot) false")
	}
	if other.StateEqual(db) {
		t.Fatal("StateEqual ignored diverged bounds") // db has Bound(2,10,7)
	}
}

func TestBoundWireBatchRoundTrip(t *testing.T) {
	us := []Update{
		New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		Bound(1, 2, 2.5),
		Bound(1, 3, 5e-324), // denormal vmax must round-trip bit-exactly
	}
	var buf bytes.Buffer
	if err := EncodeUpdatesBinary(&buf, us); err != nil {
		t.Fatalf("EncodeUpdatesBinary: %v", err)
	}
	got, err := DecodeUpdatesBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeUpdatesBinary: %v", err)
	}
	if len(got) != len(us) {
		t.Fatalf("decoded %d updates, want %d", len(got), len(us))
	}
	for i := range us {
		if got[i].Kind != us[i].Kind || got[i].O != us[i].O ||
			math.Float64bits(got[i].Tau) != math.Float64bits(us[i].Tau) ||
			!got[i].A.Equal(us[i].A) {
			t.Fatalf("update %d: got %s want %s", i, got[i], us[i])
		}
	}
}
