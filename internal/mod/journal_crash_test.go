package mod

// Crash-shaped journal tests: truncation at every byte offset of the
// tail record (the state a mid-append crash leaves behind), writer
// rotation at an entry boundary, and the listener-ordering guarantee
// the durable subsystem depends on (journal entries must be written in
// application order even under concurrent writers).

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/geom"
)

// crashStream is a small chronological stream with all three kinds.
func crashStream() []Update {
	return []Update{
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		New(2, 1, geom.Of(0, 1), geom.Of(10, 10)),
		ChDir(1, 2, geom.Of(-1, 0)),
		New(3, 3, geom.Of(2, 2), geom.Of(-5, -5)),
		ChDir(2, 4, geom.Of(1, 1)),
		Terminate(3, 5),
		ChDir(1, 6, geom.Of(0, -1)),
		Terminate(2, 7),
		New(4, 8, geom.Of(0.5, -0.25), geom.Of(100, -100)),
		ChDir(4, 9, geom.Of(-0.5, 0.25)),
	}
}

// TestReplayTolerantTornTailEveryOffset truncates a journal segment at
// every byte offset of its final record and asserts tolerant replay
// recovers exactly the complete entries, reports the torn tail, and
// returns a GoodBytes boundary that is itself cleanly replayable and
// appendable.
func TestReplayTolerantTornTailEveryOffset(t *testing.T) {
	us := crashStream()
	data := binJournal(us...)
	tailStart := len(binJournal(us[:len(us)-1]...))
	wantPrefix := NewDB(2, -1)
	must(t, wantPrefix.ApplyAll(us[:len(us)-1]...))

	for cut := 0; cut < len(data)-tailStart; cut++ {
		input := data[:tailStart+cut]
		db := NewDB(2, -1)
		st, err := ReplayTolerantBinary(db, bytes.NewReader(input))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if st.Applied != len(us)-1 || st.Skipped != 0 {
			t.Fatalf("cut=%d: applied=%d skipped=%d, want %d/0", cut, st.Applied, st.Skipped, len(us)-1)
		}
		if (cut > 0) != st.TornTail {
			t.Fatalf("cut=%d: TornTail=%v", cut, st.TornTail)
		}
		if st.TornTail && st.TailBytes != cut {
			t.Fatalf("cut=%d: TailBytes=%d", cut, st.TailBytes)
		}
		if st.GoodBytes != int64(tailStart) {
			t.Fatalf("cut=%d: GoodBytes=%d, want %d", cut, st.GoodBytes, tailStart)
		}
		if !db.StateEqual(wantPrefix) {
			t.Fatalf("cut=%d: recovered state differs from the %d-update prefix", cut, len(us)-1)
		}
		// Truncating to GoodBytes and re-appending the lost record must
		// yield a journal that replays to the full state.
		repaired := append(append([]byte(nil), input[:st.GoodBytes]...),
			data[tailStart:]...)
		db2 := NewDB(2, -1)
		st2, err := ReplayTolerantBinary(db2, bytes.NewReader(repaired))
		if err != nil || st2.TornTail || st2.Applied != len(us) {
			t.Fatalf("cut=%d: repaired replay: %+v, %v", cut, st2, err)
		}
	}
}

// TestReplayTolerantMidCorruptionAborts: a record whose checksum fails
// with complete records after it is corruption, not a torn tail.
func TestReplayTolerantMidCorruptionAborts(t *testing.T) {
	us := crashStream()
	good := len(binJournal(us[:3]...))
	bad := AppendUpdateRecord(nil, Update{Kind: KindNew, O: 9, Tau: 2.5, A: geom.Of(0, 0), B: geom.Of(0, 0)})
	bad[len(bad)-1] ^= 0xff // checksum
	corrupt := append(append(append([]byte(nil), binJournal(us[:3]...)...), bad...),
		binJournal(us[3:]...)[BinaryJournalHeaderLen:]...)
	db := NewDB(2, -1)
	st, err := ReplayTolerantBinary(db, bytes.NewReader(corrupt))
	if err == nil {
		t.Fatalf("mid-journal corruption accepted: %+v", st)
	}
	if st.Applied != 3 || st.GoodBytes != int64(good) {
		t.Fatalf("applied %d entries (%d good bytes) before corruption, want 3 (%d)", st.Applied, st.GoodBytes, good)
	}
	// The good prefix is still cleanly replayable.
	db2 := NewDB(2, -1)
	st2, err := ReplayTolerantBinary(db2, bytes.NewReader(corrupt[:st.GoodBytes]))
	if err != nil || st2.Applied != st.Applied || st2.TornTail {
		t.Fatalf("good prefix replay: %+v, %v", st2, err)
	}
}

// TestReplayTolerantEmptyAndHeaderOnly: a segment a crash left before
// its header write, and one that holds only its header, replay as
// nothing at all — no entry, no torn tail, no error.
func TestReplayTolerantEmptyAndHeaderOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		good int64
	}{
		{"empty", nil, 0},
		{"header only", binJournal(), BinaryJournalHeaderLen},
	} {
		db := NewDB(2, -1)
		st, err := ReplayTolerantBinary(db, bytes.NewReader(tc.data))
		if err != nil || st.Applied != 0 || st.Skipped != 0 || st.TornTail || st.GoodBytes != tc.good {
			t.Fatalf("%s: %+v, %v; want nothing replayed and GoodBytes %d", tc.name, st, err, tc.good)
		}
	}
}

// TestJournalRotate rotates the sink mid-stream: entries land in
// exactly one segment, split at the rotation boundary, Rotate reports
// the last sequence number the old segment holds, and the pair of
// segments replays to the full state.
func TestJournalRotate(t *testing.T) {
	seg1, seg2 := newSegment(), newSegment()
	db := NewDB(2, -1)
	j := NewJournal(db, seg1)
	us := crashStream()
	must(t, db.ApplyAll(us[:4]...))
	if m, err := j.Rotate(seg2, nil); err != nil || m != (Mark{Seq: 4, Tau: us[3].Tau}) {
		t.Fatalf("Rotate = %+v, %v; want 4 entries in the old segment", m, err)
	}
	must(t, db.ApplyAll(us[4:]...))
	must(t, j.Close())
	fresh := NewDB(2, -1)
	for i, tc := range []struct {
		seg  *bytes.Buffer
		want int
	}{{seg1, 4}, {seg2, len(us) - 4}} {
		st, err := ReplayTolerantBinary(fresh, bytes.NewReader(tc.seg.Bytes()))
		if err != nil || st.TornTail || st.Applied != tc.want {
			t.Fatalf("segment %d: %+v, %v; want %d entries", i+1, st, err, tc.want)
		}
	}
	if !fresh.StateEqual(db) {
		t.Fatal("segments do not replay to the journaled state")
	}
	// A closed journal refuses to rotate.
	if m, err := j.Rotate(seg1, nil); err != ErrJournalClosed || m.Seq != uint64(len(us)) {
		t.Fatalf("rotate after close: %+v, %v", m, err)
	}
}

// TestListenerOrderConcurrentWriters hammers one DB from many
// goroutines and asserts listeners observe updates in strictly
// increasing tau order — the invariant that makes a journal written
// under concurrent writers replayable without losing entries.
func TestListenerOrderConcurrentWriters(t *testing.T) {
	db := NewDB(2, -1)
	var mu sync.Mutex
	var seen []float64
	db.OnUpdate(func(u Update) {
		mu.Lock()
		seen = append(seen, u.Tau)
		mu.Unlock()
	})
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				o := OID(w + 1)
				// Retry with fresh taus until the chronology check admits
				// the update; concurrent writers race for the next slot.
				for attempt := 0; ; attempt++ {
					tau := db.Tau() + 1 + float64(attempt)
					var err error
					if i == 0 && attempt == 0 {
						err = db.Apply(New(o, tau, geom.Of(1, 0), geom.Of(0, 0)))
					} else if !db.Contains(o) {
						err = db.Apply(New(o, tau, geom.Of(1, 0), geom.Of(0, 0)))
					} else {
						err = db.Apply(ChDir(o, tau, geom.Of(float64(i), 1)))
					}
					if err == nil {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != writers*perWriter {
		t.Fatalf("saw %d notifications, want %d", len(seen), writers*perWriter)
	}
	for i := 1; i < len(seen); i++ {
		if !(seen[i] > seen[i-1]) {
			t.Fatalf("listener saw tau %g after %g (position %d): out of application order",
				seen[i], seen[i-1], i)
		}
	}
}

func TestStateEqual(t *testing.T) {
	us := crashStream()
	a := NewDB(2, -1)
	must(t, a.ApplyAll(us...))
	b := NewDB(2, -1)
	must(t, b.ApplyAll(us...))
	if !a.StateEqual(b) || !b.StateEqual(a) {
		t.Fatal("identical update streams produced unequal state")
	}
	// A snapshot round-trip preserves state bit-exactly.
	var buf bytes.Buffer
	must(t, a.SaveBinary(&buf))
	c, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.StateEqual(c) {
		t.Fatal("snapshot round-trip changed state")
	}
	// Divergence in tau, membership or pieces is detected.
	must(t, b.Apply(ChDir(1, 100, geom.Of(5, 5))))
	if a.StateEqual(b) {
		t.Fatal("extra update not detected")
	}
	d := NewDB(2, -1)
	must(t, d.ApplyAll(us[:len(us)-1]...))
	if a.StateEqual(d) {
		t.Fatal("missing update not detected")
	}
	if a.StateEqual(NewDB(3, -1)) {
		t.Fatal("dimension mismatch not detected")
	}
}
