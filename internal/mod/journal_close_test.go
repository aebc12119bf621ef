package mod

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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
	if err := j.Sync(); err != nil || w.syncs != 1 {
		t.Fatalf("Sync = %v after %d syncs, want nil after 1", err, w.syncs)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.syncs != 2 {
		t.Fatalf("Close performed %d syncs, want 1", w.syncs-1)
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

// TestJournalConcurrentShardWriters: concurrent Apply calls on one
// shard's database journal every update while Flush and Rotate race
// them. Every segment holds only whole records, as many as Rotate
// counted into it, and the segments replayed in rotation order give
// back every update, in order.
func TestJournalConcurrentShardWriters(t *testing.T) {
	db := NewDB(2, -1)
	segs := []*syncRecorder{{Buffer: *newSegment()}}
	seqs := []uint64{0} // entries before each segment, as Rotate reports them
	j := NewJournal(db, segs[0])
	const writers, perWriter = 3, 50
	var tau atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				// A tau taken before another writer's later one is
				// refused; take the next.
				for {
					u := New(OID(1000*i+k+1), float64(tau.Add(1)), geom.Of(1, 0), geom.Of(0, 0))
					err := db.Apply(u)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrChronology) {
						t.Errorf("writer %d apply: %v", i, err)
						return
					}
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for n, racing := 1, true; racing; n++ {
		select {
		case <-done:
			racing = false
		default:
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		if n%4 == 0 {
			next := &syncRecorder{Buffer: *newSegment()}
			m, err := j.Rotate(next, nil)
			if err != nil {
				t.Fatal(err)
			}
			segs, seqs = append(segs, next), append(seqs, m.Seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seqs = append(seqs, j.Mark().Seq)
	replayed := NewDB(2, -1)
	total := 0
	for i, seg := range segs {
		st, err := ReplayTolerantBinary(replayed, bytes.NewReader(seg.Bytes()))
		if err != nil || st.TornTail || st.Skipped != 0 || uint64(st.Applied) != seqs[i+1]-seqs[i] {
			t.Fatalf("segment %d of %d: %+v, %v; the journal counted %d entries into it", i, len(segs), st, err, seqs[i+1]-seqs[i])
		}
		if st.GoodBytes != int64(seg.Len()) {
			t.Fatalf("segment %d: GoodBytes %d, want the whole %d-byte segment", i, st.GoodBytes, seg.Len())
		}
		total += st.Applied
	}
	t.Logf("%d updates over %d segments", total, len(segs))
	if total != writers*perWriter {
		t.Fatalf("%d segments replay %d updates, want %d", len(segs), total, writers*perWriter)
	}
	if !replayed.StateEqual(db) {
		t.Fatal("replayed segments differ from the database")
	}
}
