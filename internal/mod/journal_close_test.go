package mod

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
)

// syncRecorder is a SyncWriter that records flushes and syncs.
type syncRecorder struct {
	bytes.Buffer
	syncs int
}

func (s *syncRecorder) Sync() error {
	s.syncs++
	return nil
}

func TestJournalCloseFlushesAndSyncs(t *testing.T) {
	db := NewDB(2, -1)
	w := &syncRecorder{Buffer: *newSegment()}
	j := NewJournal(db, w)
	if err := db.Apply(New(1, 0, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.syncs != 1 {
		t.Fatalf("Close performed %d syncs, want 1", w.syncs)
	}
	if st, err := ReplayTolerantBinary(NewDB(2, -1), bytes.NewReader(w.Bytes())); err != nil || st.Applied != 1 || st.TornTail {
		t.Fatalf("closed journal not flushed: %+v, %v", st, err)
	}
	// Updates after Close are not recorded.
	n := w.Len()
	if err := db.Apply(ChDir(1, 1, geom.Of(0, 1))); err != nil {
		t.Fatal(err)
	}
	_ = j.Flush() //modlint:allow syncorder -- post-Close flush: the test asserts nothing was written
	if w.Len() != n {
		t.Fatal("journal recorded an update after Close")
	}
	if err := j.Close(); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("second Close = %v, want ErrJournalClosed", err)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestJournalCloseSurfacesStickyError(t *testing.T) {
	db := NewDB(2, -1)
	j := NewJournal(db, &failWriter{budget: 0})
	if err := db.Apply(New(1, 0, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	// The encode buffered fine; the flush inside Close hits the writer.
	err := j.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close = %v, want sticky disk-full error", err)
	}
	if j.Err() == nil {
		t.Fatal("sticky error not retained")
	}
	// And it stays surfaced on subsequent Closes.
	if err := j.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("repeat Close = %v, want sticky error", err)
	}
}

// multiSource fans one listener registration out to several DBs — the
// shape of a sharded engine's OnUpdate.
type multiSource []*DB

func (m multiSource) OnUpdate(l Listener) {
	for _, db := range m {
		db.OnUpdate(l)
	}
}

func TestJournalConcurrentShardWriters(t *testing.T) {
	shards := multiSource{NewDB(2, -1), NewDB(2, -1), NewDB(2, -1)}
	buf := syncRecorder{Buffer: *newSegment()}
	j := NewJournal(shards, &buf)
	const perShard = 50
	var wg sync.WaitGroup
	for i, db := range shards {
		wg.Add(1)
		go func(i int, db *DB) {
			defer wg.Done()
			for k := 0; k < perShard; k++ {
				u := New(OID(1000*i+k+1), float64(k), geom.Of(1, 0), geom.Of(0, 0))
				if err := db.Apply(u); err != nil {
					t.Errorf("shard %d apply: %v", i, err)
					return
				}
			}
		}(i, db)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Every record must be intact (framing and checksum): interleaved
	// writers may order records arbitrarily but never tear them. The
	// shards' taus interleave, so replay into one database skips some
	// entries as stale; decoded = applied + skipped.
	st, err := ReplayTolerantBinary(NewDB(2, -1), bytes.NewReader(buf.Bytes()))
	if err != nil || st.TornTail {
		t.Fatalf("journal corrupt: %+v, %v", st, err)
	}
	if n := st.Applied + st.Skipped; n != 3*perShard {
		t.Fatalf("journal has %d entries, want %d", n, 3*perShard)
	}
	if st.GoodBytes != int64(buf.Len()) {
		t.Fatalf("GoodBytes %d, want the whole %d-byte segment", st.GoodBytes, buf.Len())
	}
}
