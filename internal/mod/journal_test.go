package mod

import (
	"bytes"
	"testing"

	"repro/internal/geom"
)

// newSegment returns a buffer holding the header a journal segment
// starts with; the journal itself writes records only.
func newSegment() *bytes.Buffer {
	return bytes.NewBuffer(BinaryJournalHeader())
}

func TestJournalRecordsAndReplays(t *testing.T) {
	seg := newSegment()
	db := NewDB(2, -1)
	j := NewJournal(db, seg)
	must(t, db.ApplyAll(
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		ChDir(1, 5, geom.Of(0, 1)),
		New(2, 6, geom.Of(0, 0), geom.Of(9, 9)),
		Terminate(2, 8),
	))
	// A rejected update must not be journaled.
	_ = db.Apply(ChDir(1, 3, geom.Of(1, 1)))
	must(t, j.Flush())
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	if m := j.Mark(); m != (Mark{Seq: 4, Tau: 8}) {
		t.Fatalf("journal mark %+v, want 4 entries up to tau 8", m)
	}

	// Replay into a fresh database reproduces the state.
	fresh := NewDB(2, -1)
	st, err := ReplayTolerantBinary(fresh, bytes.NewReader(seg.Bytes()))
	if err != nil || st.Applied != 4 || st.Skipped != 0 || st.TornTail {
		t.Fatalf("replay: %+v err=%v, want 4 applied", st, err)
	}
	if !fresh.StateEqual(db) {
		t.Fatalf("replayed state differs: tau %g/%g len %d/%d",
			fresh.Tau(), db.Tau(), fresh.Len(), db.Len())
	}
}

// TestReplayTolerantSkipsApplied: the snapshot already contains the
// first update; tolerant replay skips it and applies the rest.
func TestReplayTolerantSkipsApplied(t *testing.T) {
	us := []Update{
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		ChDir(1, 5, geom.Of(0, 1)),
	}
	want := NewDB(2, -1)
	must(t, want.ApplyAll(us...))
	data := binJournal(us...)
	restored := NewDB(2, -1)
	must(t, restored.Apply(us[0]))
	st, err := ReplayTolerantBinary(restored, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 1 || st.Skipped != 1 {
		t.Errorf("applied=%d skipped=%d, want 1/1", st.Applied, st.Skipped)
	}
	if st.TornTail || st.GoodBytes != int64(len(data)) {
		t.Errorf("stats = %+v, want clean tail covering %d bytes", st, len(data))
	}
	if !restored.StateEqual(want) {
		t.Error("state differs after tolerant replay")
	}
}
