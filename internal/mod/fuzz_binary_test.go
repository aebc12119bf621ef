package mod

// FuzzReplayTolerantBinary hardens journal recovery against arbitrary
// bytes (corrupted, truncated, interleaved or adversarial): they must
// never panic, accounting must be internally consistent, and GoodBytes
// must always be a truncate-and-append boundary. On top of the replay
// invariants, every state reachable by replay must survive a binary
// snapshot round-trip StateEqual — the codec's whole contract is that
// raw IEEE-754 bits (±Inf taus, denormal coefficients) come back
// bit-identical, with no JSON-style non-finite failures.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
)

// binJournal frames updates into a well-formed binary segment.
func binJournal(us ...Update) []byte {
	b := BinaryJournalHeader()
	for _, u := range us {
		b = AppendUpdateRecord(b, u)
	}
	return b
}

func FuzzReplayTolerantBinary(f *testing.F) {
	valid := binJournal(
		New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		ChDir(1, 2, geom.Of(0, 1)),
		New(2, 3, geom.Of(0, 0), geom.Of(5, 5)),
		Terminate(2, 4),
	)
	denorm := binJournal(
		New(1, 1, geom.Of(5e-324, -5e-324), geom.Of(math.MaxFloat64, 1e-308)),
		ChDir(1, 2, geom.Of(math.Copysign(0, -1), 2)),
	)
	// Non-finite coefficients are representable on the wire but
	// rejected at Apply: replay must count them as skipped, not die.
	nonfinite := binJournal(
		New(1, 1, geom.Of(math.Inf(1), 0), geom.Of(0, 0)),
		New(2, 2, geom.Of(1, 0), geom.Of(0, math.Inf(-1))),
		New(3, 3, geom.Of(1, 0), geom.Of(0, 0)),
	)
	// Speed-bound records: a valid bound on a live object, a bound on an
	// unknown object (skipped at Apply), malformed vmax payloads (empty A,
	// negative, NaN — skipped, never fatal), and a bound surviving next to
	// the sampled motion it annotates.
	bounds := binJournal(
		New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		Bound(1, 2, 2.5),
		Bound(7, 3, 1),   // unknown object: skipped
		Bound(1, 4, 0),   // zero bound is legal (stationary declaration)
		Bound(1, 4.5, 5), // bounds may be revised
		ChDir(1, 5, geom.Of(0, 1)),
	)
	badBounds := binJournal(
		New(1, 1, geom.Of(1, 0), geom.Of(0, 0)),
		Update{Kind: KindBound, O: 1, Tau: 2},                               // no vmax value
		Update{Kind: KindBound, O: 1, Tau: 3, A: geom.Of(-1)},               // negative
		Update{Kind: KindBound, O: 1, Tau: 4, A: geom.Of(math.NaN())},       // non-finite
		Update{Kind: KindBound, O: 1, Tau: 5, A: geom.Of(1), B: geom.Of(0)}, // stray position
		Update{Kind: KindBound, O: 1, Tau: 6, A: geom.Of(5e-324, math.Pi)},  // wrong arity
	)
	seeds := [][]byte{
		valid,
		valid[:len(valid)-3], // torn tail mid-record
		valid[:3],            // torn header
		denorm,
		nonfinite,
		bounds,
		bounds[:len(bounds)-5], // torn tail mid-bound-record
		badBounds,
		binJournal(),                    // header only
		{},                              // empty segment
		append([]byte{}, "JUNKdata"...), // wrong magic
		append(binJournal(New(1, 5, geom.Of(1, 0), geom.Of(0, 0))),
			binJournal(New(2, 3, geom.Of(1, 0), geom.Of(0, 0)))[BinaryJournalHeaderLen:]...), // chronology skip
		append(append([]byte{}, valid...), 0xff, 0xff, 0xff, 0xff, 0x7f), // huge length varint tail
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := NewDB(2, -1)
		applied := 0
		db.OnUpdate(func(Update) { applied++ })
		st, err := ReplayTolerantBinary(db, bytes.NewReader(data))
		if applied != st.Applied {
			t.Fatalf("Applied=%d but the db notified %d updates", st.Applied, applied)
		}
		if st.Applied < 0 || st.Skipped < 0 || st.TailBytes < 0 {
			t.Fatalf("negative accounting: %+v", st)
		}
		if st.GoodBytes < 0 || st.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes=%d outside [0,%d]", st.GoodBytes, len(data))
		}
		if st.TornTail && err != nil {
			t.Fatalf("both torn tail and error: %+v, %v", st, err)
		}
		if st.TornTail && st.TailBytes == 0 {
			t.Fatalf("torn tail with no tail bytes: %+v", st)
		}
		// The good prefix is a clean journal: same accounting, no torn
		// tail, no error — the durable store truncates there and appends.
		db2 := NewDB(2, -1)
		st2, err2 := ReplayTolerantBinary(db2, bytes.NewReader(data[:st.GoodBytes]))
		if err2 != nil {
			t.Fatalf("good prefix errored: %v (original: %+v, %v)", err2, st, err)
		}
		if st2.TornTail {
			t.Fatalf("good prefix has a torn tail (original: %+v)", st)
		}
		if st2.Applied != st.Applied || st2.Skipped != st.Skipped {
			t.Fatalf("good prefix accounting %d/%d differs from original %d/%d",
				st2.Applied, st2.Skipped, st.Applied, st.Skipped)
		}
		if !db.StateEqual(db2) {
			t.Fatal("good prefix replays to different state")
		}
		// Snapshot round-trip: any replay-reachable state (always
		// finite — Apply gates non-finite input) must come back
		// StateEqual through the binary snapshot codec.
		var snap bytes.Buffer
		if serr := db.SaveBinary(&snap); serr != nil {
			t.Fatalf("SaveBinary of replayed state: %v", serr)
		}
		db3, lerr := LoadBinary(bytes.NewReader(snap.Bytes()))
		if lerr != nil {
			t.Fatalf("LoadBinary of own snapshot: %v", lerr)
		}
		if !db3.StateEqual(db) {
			t.Fatal("binary snapshot round-trip is not StateEqual")
		}
	})
}

// FuzzLoadBinary: arbitrary bytes must never panic the snapshot reader,
// and whatever it accepts must come back StateEqual through the writer.
// The seeds are a version-3 snapshot of the compatibility history, the
// same snapshot cut short, and the version-2 file of that history an
// older writer produced (refused by its header).
func FuzzLoadBinary(f *testing.F) {
	db := NewDB(2, 0)
	if err := db.ApplyAll(fixtureUpdates()...); err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := db.SaveBinary(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:v3.Len()-40])
	f.Add(readFixture(f, "snapshot-v2.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := db.SaveBinary(&buf); err != nil {
			t.Fatalf("SaveBinary of a loaded snapshot: %v", err)
		}
		back, err := LoadBinary(&buf)
		if err != nil {
			t.Fatalf("LoadBinary of own snapshot: %v", err)
		}
		if !back.StateEqual(db) {
			t.Fatal("binary snapshot round-trip is not StateEqual")
		}
	})
}
