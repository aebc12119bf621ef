package durable_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/vfs"
)

// stream10 is a small chronological stream exercising all three update
// kinds, with strictly increasing integer taus 0..9 so a recovered
// database's Tau identifies exactly which prefix it holds.
func stream10() []mod.Update {
	return []mod.Update{
		mod.New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		mod.New(2, 1, geom.Of(0, 1), geom.Of(10, 10)),
		mod.ChDir(1, 2, geom.Of(-1, 0)),
		mod.New(3, 3, geom.Of(2, 2), geom.Of(-5, -5)),
		mod.ChDir(2, 4, geom.Of(1, 1)),
		mod.Terminate(3, 5),
		mod.ChDir(1, 6, geom.Of(0, -1)),
		mod.Terminate(2, 7),
		mod.New(4, 8, geom.Of(0.5, -0.25), geom.Of(100, -100)),
		mod.ChDir(4, 9, geom.Of(-0.5, 0.25)),
	}
}

// prefixDB builds the database state after the first j updates.
func prefixDB(t *testing.T, us []mod.Update, j int) *mod.DB {
	t.Helper()
	db := mod.NewDB(2, -1)
	if err := db.ApplyAll(us[:j]...); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestStoreJournalOnlyReopen(t *testing.T) {
	dir := t.TempDir()
	us := stream10()
	st, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DB().ApplyAll(us...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	info := st2.Recovery()
	if info.SnapshotLoaded || info.Replay.Applied != len(us) || info.Replay.Skipped != 0 || info.Replay.TornTail {
		t.Fatalf("recovery = %+v, want journal-only replay of %d entries", info, len(us))
	}
	if !st2.DB().StateEqual(prefixDB(t, us, len(us))) {
		t.Fatal("recovered state differs from applied state")
	}
}

func TestStoreCheckpointReopenAndGC(t *testing.T) {
	dir := t.TempDir()
	us := stream10()
	st, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DB().ApplyAll(us[:4]...); err != nil {
		t.Fatal(err)
	}
	if info, err := st.Checkpoint(); err != nil || info.Seq != 2 {
		t.Fatalf("first checkpoint: %+v, %v", info, err)
	}
	if err := st.DB().ApplyAll(us[4:8]...); err != nil {
		t.Fatal(err)
	}
	if info, err := st.Checkpoint(); err != nil || info.Seq != 3 {
		t.Fatalf("second checkpoint: %+v, %v", info, err)
	}
	if err := st.DB().ApplyAll(us[8:]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// GC must have left exactly the manifest and the live pair.
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("store dir holds %v, want MANIFEST + 1 snapshot + 1 journal", names)
	}

	st2, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	info := st2.Recovery()
	if !info.SnapshotLoaded {
		t.Fatalf("recovery = %+v, want snapshot load", info)
	}
	if info.Replay.Applied != 2 {
		t.Fatalf("recovery applied %d entries, want 2 (post-checkpoint tail)", info.Replay.Applied)
	}
	if st2.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", st2.Seq())
	}
	if !st2.DB().StateEqual(prefixDB(t, us, len(us))) {
		t.Fatal("recovered state differs from applied state")
	}
}

// TestStoreTornTailReopenAppend crashes a journal mid-record by hand
// (truncating the segment file) and asserts the next open drops the
// torn tail, truncates it away, and leaves the segment appendable: a
// further update plus another reopen round-trips the repaired history.
func TestStoreTornTailReopenAppend(t *testing.T) {
	dir := t.TempDir()
	us := stream10()
	st, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DB().ApplyAll(us...); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop 3 bytes off the segment.
	wal := filepath.Join(dir, "wal-0000001.wal")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	info := st2.Recovery()
	if !info.Replay.TornTail || info.Replay.Applied != len(us)-1 {
		t.Fatalf("recovery = %+v, want torn tail with %d applied", info, len(us)-1)
	}
	if !st2.DB().StateEqual(prefixDB(t, us, len(us)-1)) {
		t.Fatal("recovered state is not the complete-entry prefix")
	}
	// The dropped update can be re-applied and must survive a reopen.
	if err := st2.DB().Apply(us[len(us)-1]); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Recovery().Replay.TornTail {
		t.Fatal("torn tail reported again after repair")
	}
	if !st3.DB().StateEqual(prefixDB(t, us, len(us))) {
		t.Fatal("re-applied update did not survive the repaired journal")
	}
}

func TestStoreDimMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.OpenStore(nil, dir, durable.StoreOptions{Dim: 3}); err == nil ||
		!strings.Contains(err.Error(), "2-D") {
		t.Fatalf("dim-mismatch open: %v, want dimension error", err)
	}
}

func TestStoreFreshNeedsDim(t *testing.T) {
	if _, err := durable.OpenStore(nil, t.TempDir(), durable.StoreOptions{}); err == nil {
		t.Fatal("fresh store without a dimension must fail")
	}
}
