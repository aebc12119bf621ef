package mod

// Tests for the binary journal/wire codec: bit-exact float round-trips
// (the whole reason the codec exists — JSON cannot carry ±Inf, NaN, or
// guarantee denormals survive a decimal round-trip), torn-tail replay
// semantics, and strict decoding on the HTTP batch path.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
)

// edgeUpdates exercises the float edges the codec must carry verbatim:
// denormals, extremes, negative zero, and non-finite coefficients
// (representable on the wire; gated at Apply, not at decode).
func edgeUpdates() []Update {
	return []Update{
		New(1, 0, geom.Of(5e-324, -5e-324), geom.Of(math.MaxFloat64, -math.MaxFloat64)),
		ChDir(1, 1, geom.Of(math.Copysign(0, -1), 1e-308)),
		New(1<<63, 2, geom.Of(math.Inf(1), math.Inf(-1)), geom.Of(0, 0)),
		Terminate(1, 3),
	}
}

func vecBitsEqual(a, b geom.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestBinaryUpdatesRoundTripBitExact(t *testing.T) {
	us := edgeUpdates()
	var buf bytes.Buffer
	must(t, EncodeUpdatesBinary(&buf, us))
	got, err := DecodeUpdatesBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(us) {
		t.Fatalf("decoded %d updates, want %d", len(got), len(us))
	}
	for i, u := range us {
		g := got[i]
		if g.Kind != u.Kind || g.O != u.O ||
			math.Float64bits(g.Tau) != math.Float64bits(u.Tau) ||
			!vecBitsEqual(g.A, u.A) || !vecBitsEqual(g.B, u.B) {
			t.Errorf("update %d: got %+v, want %+v", i, g, u)
		}
	}
}

func TestDecodeUpdatesBinaryStrict(t *testing.T) {
	var buf bytes.Buffer
	must(t, EncodeUpdatesBinary(&buf, []Update{New(1, 0, geom.Of(1), geom.Of(2))}))
	whole := buf.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("JUNK\x01"),
		"bad version": append([]byte("MODU\x7f"), whole[5:]...),
		"truncated":   whole[:len(whole)-3],
		"flipped bit": append(append([]byte{}, whole[:len(whole)-1]...), whole[len(whole)-1]^1),
	}
	for name, data := range cases {
		if _, err := DecodeUpdatesBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	// A database with history: closed pieces, an open-ended piece and a
	// terminated object. Every trajectory comes back piece for piece,
	// and the restored database keeps enforcing chronology from the
	// restored tau.
	t.Run("history", func(t *testing.T) {
		db := buildSampleDB(t)
		var buf bytes.Buffer
		must(t, db.SaveBinary(&buf))
		got, err := LoadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !got.StateEqual(db) {
			t.Fatal("binary snapshot round-trip is not StateEqual")
		}
		for _, o := range db.Objects() {
			a, _ := db.Traj(o)
			if b, err := got.Traj(o); err != nil || !a.Equal(b) {
				t.Errorf("%s differs after round trip (%v):\n%s\nvs\n%s", o, err, a, b)
			}
		}
		if err := got.Apply(ChDir(1, 5, geom.Of(0, 0))); err == nil {
			t.Error("pre-tau update accepted after restore")
		}
		if err := got.Apply(ChDir(1, 8, geom.Of(0, 0))); err != nil {
			t.Errorf("post-tau update rejected after restore: %v", err)
		}
	})

	// A fresh database still at the -Inf seed tau: the codec stores raw
	// bits, so -Inf needs no sentinel.
	t.Run("fresh -Inf", func(t *testing.T) {
		fresh := NewDB(3, math.Inf(-1))
		var buf bytes.Buffer
		must(t, fresh.SaveBinary(&buf))
		got, err := LoadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !got.StateEqual(fresh) || !math.IsInf(got.Tau(), -1) {
			t.Fatalf("fresh -Inf db round-trip: tau=%g", got.Tau())
		}
	})
}

func TestLoadBinaryRejectsCorruption(t *testing.T) {
	db := buildSampleDB(t)
	var buf bytes.Buffer
	must(t, db.SaveBinary(&buf))
	whole := buf.Bytes()
	for name, data := range map[string][]byte{
		"empty":     {},
		"header":    whole[:5],
		"bad magic": append([]byte("JUNK"), whole[4:]...),
		"truncated": whole[:len(whole)-1],
		"trailing":  append(append([]byte{}, whole...), 0),
	} {
		if _, err := LoadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	// Flip one bit mid-body: the CRC must catch it before parsing.
	mid := append([]byte{}, whole...)
	mid[len(mid)/2] ^= 0x10
	if _, err := LoadBinary(bytes.NewReader(mid)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped body bit: %v, want checksum error", err)
	}
}

// TestLoadBinaryTruncations cuts a snapshot with objects, closed and
// open pieces and speed bounds at every length. As it stands on disk a
// cut file fails the CRC (or the minimum-length check); with the CRC
// recomputed over the cut body — corruption the checksum cannot see —
// the decoder has to notice by itself that it ran out of bytes, in every
// section. Neither may panic or load.
func TestLoadBinaryTruncations(t *testing.T) {
	db := NewDB(2, 0)
	must(t, db.ApplyAll(fixtureUpdates()...))
	var buf bytes.Buffer
	must(t, db.SaveBinary(&buf))
	whole := buf.Bytes()
	for n := 0; n < len(whole); n++ {
		_, err := LoadBinary(bytes.NewReader(whole[:n]))
		if err == nil || !(strings.Contains(err.Error(), "checksum") || strings.Contains(err.Error(), "truncated")) {
			t.Fatalf("snapshot cut to %d of %d bytes: %v, want a checksum or truncation error", n, len(whole), err)
		}
	}
	body := whole[BinaryJournalHeaderLen : len(whole)-4]
	for n := 0; n < len(body); n++ {
		cut := append([]byte(nil), whole[:BinaryJournalHeaderLen+n]...)
		cut = binary.LittleEndian.AppendUint32(cut, crc32.Checksum(body[:n], crcTable))
		if _, err := LoadBinary(bytes.NewReader(cut)); !errors.Is(err, errTruncated) {
			t.Fatalf("body cut to %d of %d bytes, CRC recomputed: %v, want errTruncated", n, len(body), err)
		}
	}
}

// TestDecodeUpdatePayloadTruncations: a journal or batch record's CRC
// covers its payload, so a writer bug or a crafted record can still hand
// the payload decoder a cut or malformed payload under a valid CRC.
// Every proper prefix of every kind's payload is errTruncated, an unknown
// kind byte and a trailing byte are refused, and the whole payload
// decodes back to its update.
func TestDecodeUpdatePayloadTruncations(t *testing.T) {
	for _, u := range append(fixtureUpdates(), Terminate(2, 12)) {
		payload := appendUpdatePayload(nil, u)
		for n := 0; n < len(payload); n++ {
			if _, err := decodeUpdatePayload(payload[:n]); !errors.Is(err, errTruncated) {
				t.Fatalf("%v: payload cut to %d of %d bytes: %v, want errTruncated", u, n, len(payload), err)
			}
		}
		got, err := decodeUpdatePayload(payload)
		if err != nil || got.Kind != u.Kind || got.O != u.O || got.Tau != u.Tau || !got.A.Equal(u.A) || !got.B.Equal(u.B) {
			t.Fatalf("%v: decoded %v, %v", u, got, err)
		}
		if _, err := decodeUpdatePayload(append(payload, 0)); err == nil {
			t.Fatalf("%v: payload with a trailing byte decoded", u)
		}
		bad := append([]byte{byte(KindBound) + 1}, payload[1:]...)
		if _, err := decodeUpdatePayload(bad); err == nil {
			t.Fatalf("%v: payload with kind byte %d decoded", u, bad[0])
		}
	}
}

// TestBinaryJournalWriter drives the Journal and replays its output:
// the writer and ReplayTolerantBinary are inverses.
func TestBinaryJournalWriter(t *testing.T) {
	db := NewDB(2, -1)
	var seg bytes.Buffer
	seg.Write(BinaryJournalHeader())
	j := NewJournal(db, &seg)
	defer j.Close()
	us := []Update{
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		New(2, 1, geom.Of(0, 1), geom.Of(5e-324, -0.0)),
		ChDir(1, 2, geom.Of(-1, 0)),
		Terminate(2, 3),
	}
	must(t, db.ApplyAll(us...))
	must(t, j.Flush())

	rec := NewDB(2, -1)
	st, err := ReplayTolerantBinary(rec, bytes.NewReader(seg.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != len(us) || st.Skipped != 0 || st.TornTail {
		t.Fatalf("replay stats %+v, want %d applied", st, len(us))
	}
	if !rec.StateEqual(db) {
		t.Fatal("binary journal replay differs from live state")
	}
	if st.GoodBytes != int64(seg.Len()) {
		t.Fatalf("GoodBytes %d != segment length %d", st.GoodBytes, seg.Len())
	}
}

func TestBinaryReplayTornTail(t *testing.T) {
	db := NewDB(2, -1)
	var seg bytes.Buffer
	seg.Write(BinaryJournalHeader())
	j := NewJournal(db, &seg)
	defer j.Close()
	must(t, db.ApplyAll(
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		ChDir(1, 1, geom.Of(0, 1)),
	))
	must(t, j.Flush())
	whole := seg.Len()

	// Chop 3 bytes: torn final record, one update recovered.
	rec := NewDB(2, -1)
	st, err := ReplayTolerantBinary(rec, bytes.NewReader(seg.Bytes()[:whole-3]))
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornTail || st.Applied != 1 {
		t.Fatalf("stats %+v, want torn tail with 1 applied", st)
	}
	if rec.Tau() != 0 {
		t.Fatalf("recovered tau %g, want 0", rec.Tau())
	}

	// Chop inside the header: GoodBytes 0, torn, no error.
	st, err = ReplayTolerantBinary(NewDB(2, -1), bytes.NewReader(seg.Bytes()[:3]))
	if err != nil || !st.TornTail || st.GoodBytes != 0 {
		t.Fatalf("torn header: %+v, %v", st, err)
	}

	// Corruption mid-stream (not at the tail) is an error, not a torn
	// tail: flip a payload bit in the FIRST record.
	data := append([]byte{}, seg.Bytes()...)
	data[BinaryJournalHeaderLen+2] ^= 1
	if _, err := ReplayTolerantBinary(NewDB(2, -1), bytes.NewReader(data)); err == nil {
		t.Fatal("mid-stream corruption replayed without error")
	}
}
