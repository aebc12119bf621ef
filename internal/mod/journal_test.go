package mod

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/geom"
)

// newSegment returns a buffer holding the header a journal segment
// starts with; the journal itself writes records only.
func newSegment() *bytes.Buffer {
	return bytes.NewBuffer(BinaryJournalHeader())
}

// jsonLines renders updates as the JSON-lines journal older builds
// wrote (one json.Marshal(Update) per line) — the input of the
// ReplayTolerant importer, which no code in this repository produces
// any more.
func jsonLines(t *testing.T, us ...Update) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, u := range us {
		line, err := json.Marshal(u)
		must(t, err)
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
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
	if j.Seq() != 4 {
		t.Fatalf("journal buffered %d entries, want 4", j.Seq())
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
// first update; tolerant replay skips it and applies the rest, in
// either codec.
func TestReplayTolerantSkipsApplied(t *testing.T) {
	us := []Update{
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		ChDir(1, 5, geom.Of(0, 1)),
	}
	want := NewDB(2, -1)
	must(t, want.ApplyAll(us...))
	for _, tc := range []struct {
		name   string
		data   []byte
		replay func(*DB, []byte) (ReplayStats, error)
	}{
		{"binary", binJournal(us...), func(db *DB, b []byte) (ReplayStats, error) {
			return ReplayTolerantBinary(db, bytes.NewReader(b))
		}},
		{"json", jsonLines(t, us...), func(db *DB, b []byte) (ReplayStats, error) {
			return ReplayTolerant(db, bytes.NewReader(b))
		}},
	} {
		restored := NewDB(2, -1)
		must(t, restored.Apply(us[0]))
		st, err := tc.replay(restored, tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.Applied != 1 || st.Skipped != 1 {
			t.Errorf("%s: applied=%d skipped=%d, want 1/1", tc.name, st.Applied, st.Skipped)
		}
		if st.TornTail || st.GoodBytes != int64(len(tc.data)) {
			t.Errorf("%s: stats = %+v, want clean tail covering %d bytes", tc.name, st, len(tc.data))
		}
		if !restored.StateEqual(want) {
			t.Errorf("%s: state differs after tolerant replay", tc.name)
		}
	}
}
