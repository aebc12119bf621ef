package durable_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/vfs"
)

func TestEngineReopenJournalOnly(t *testing.T) {
	dir := t.TempDir()
	us := stream10()
	eng, err := durable.Open(dir, durable.Config{Shards: 3, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyAll(us...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := durable.Open(dir, durable.Config{Shards: 3, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rec.Snapshot().StateEqual(prefixDB(t, us, len(us))) {
		t.Fatal("recovered engine state differs")
	}
	applied := 0
	for _, info := range rec.Recovery() {
		applied += info.Replay.Applied
	}
	if applied != len(us) {
		t.Fatalf("recovery applied %d entries across shards, want %d", applied, len(us))
	}
}

func TestEngineAdoptsOnDiskShape(t *testing.T) {
	dir := t.TempDir()
	eng, err := durable.Open(dir, durable.Config{Shards: 4, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyAll(stream10()...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Shards: 0 and Dim: 0 adopt whatever the directory holds.
	rec, err := durable.Open(dir, durable.Config{Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.NumShards() != 4 || rec.Dim() != 2 || rec.Generation() != 1 {
		t.Fatalf("adopted P=%d dim=%d gen=%d, want 4/2/1",
			rec.NumShards(), rec.Dim(), rec.Generation())
	}
}

func TestEngineDimMismatch(t *testing.T) {
	dir := t.TempDir()
	eng, err := durable.Open(dir, durable.Config{Shards: 2, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.Open(dir, durable.Config{Shards: 2, Dim: 3}); err == nil ||
		!strings.Contains(err.Error(), "2-D") {
		t.Fatalf("dim-mismatch open: %v, want dimension error", err)
	}
}

// TestEngineReshard changes the partition count across reopens and
// asserts the state survives re-partitioning in both directions, the
// generation advances, and stale generation directories are collected.
func TestEngineReshard(t *testing.T) {
	dir := t.TempDir()
	us := stream10()
	want := prefixDB(t, us, len(us))

	eng, err := durable.Open(dir, durable.Config{Shards: 2, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyAll(us[:8]...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyAll(us[8:]...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// 2 -> 5 shards: re-shard during open.
	eng5, err := durable.Open(dir, durable.Config{Shards: 5, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	if eng5.NumShards() != 5 || eng5.Generation() != 2 {
		t.Fatalf("after re-shard: P=%d gen=%d, want 5/2", eng5.NumShards(), eng5.Generation())
	}
	if !eng5.Snapshot().StateEqual(want) {
		t.Fatal("state lost in 2->5 re-shard")
	}
	// Old generation directories must be gone.
	names, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "g0001-") {
			t.Fatalf("stale generation directory %s not collected (dir: %v)", n, names)
		}
	}
	// The re-sharded engine is live: apply, then reopen unsharded.
	if err := eng5.Apply(mod.ChDir(1, 50, us[0].A)); err != nil {
		t.Fatal(err)
	}
	if err := eng5.Close(); err != nil {
		t.Fatal(err)
	}

	eng1, err := durable.Open(dir, durable.Config{Shards: 1, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng1.Close()
	if eng1.NumShards() != 1 || eng1.Generation() != 3 {
		t.Fatalf("after second re-shard: P=%d gen=%d, want 1/3", eng1.NumShards(), eng1.Generation())
	}
	if err := want.Apply(mod.ChDir(1, 50, us[0].A)); err != nil {
		t.Fatal(err)
	}
	if !eng1.Snapshot().StateEqual(want) {
		t.Fatal("state lost in 5->1 re-shard")
	}
}

func TestEngineMetrics(t *testing.T) {
	dir := t.TempDir()
	us := stream10()
	reg := obs.NewRegistry()
	eng, err := durable.Open(dir, durable.Config{Shards: 2, Dim: 2, Tau0: -1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyAll(us...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	rec, err := durable.Open(dir, durable.Config{Shards: 2, Dim: 2, Tau0: -1, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	var buf strings.Builder
	if err := reg2.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"mod_recovery_seconds",
		"mod_recovery_replayed_total",
		"mod_journal_seq",
		"mod_checkpoints_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestEngineFaultMetrics: the failure families count what happened — a
// checkpoint failed by an injected fault, a reopen over a torn journal
// tail, and a reopen that replays an entry its snapshot already holds
// (what an update applied between a checkpoint's journal swap and its
// snapshot leaves behind).
func TestEngineFaultMetrics(t *testing.T) {
	us := stream10()
	cfg := durable.Config{Shards: 1, Dim: 2, Tau0: -1}
	counter := func(reg *obs.Registry, name string) uint64 {
		t.Helper()
		v, ok := reg.JSONValue()[name].(uint64)
		if !ok {
			t.Fatalf("no counter %s", name)
		}
		return v
	}
	// write runs the stream on a fresh directory, checkpointed or not,
	// and returns the directory and its one journal segment.
	write := func(checkpoint bool) (string, string) {
		t.Helper()
		dir := t.TempDir()
		eng, err := durable.Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ApplyAll(us...); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if _, err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		wals, err := filepath.Glob(filepath.Join(dir, "*", "wal-*.wal"))
		if err != nil || len(wals) != 1 {
			t.Fatalf("journal segments %v, %v; want one", wals, err)
		}
		return dir, wals[0]
	}
	reopen := func(dir string) *obs.Registry {
		t.Helper()
		reg := obs.NewRegistry()
		rec, err := durable.Open(dir, durable.Config{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	t.Run("checkpoint error", func(t *testing.T) {
		// Count Open's operations; the next one is the checkpoint's first.
		probe := errfs.New(vfs.OS{}, 0, errfs.FailOp)
		pcfg := cfg
		pcfg.FS = probe
		eng, err := durable.Open(filepath.Join(t.TempDir(), "probe"), pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		fcfg := cfg
		fcfg.FS, fcfg.Registry = errfs.New(vfs.OS{}, probe.Ops()+1, errfs.FailOp), reg
		eng, err = durable.Open(filepath.Join(t.TempDir(), "data"), fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Checkpoint(); !errors.Is(err, errfs.ErrInjected) {
			t.Fatalf("Checkpoint = %v, want the injected fault", err)
		}
		_ = eng.Close() // the simulated process is dead; Close fails too
		if n := counter(reg, "mod_checkpoint_errors_total"); n != 1 {
			t.Errorf("mod_checkpoint_errors_total = %d, want 1", n)
		}
		if n := counter(reg, "mod_checkpoints_total"); n != 0 {
			t.Errorf("mod_checkpoints_total = %d, want 0", n)
		}
	})

	t.Run("torn tail", func(t *testing.T) {
		dir, wal := write(false)
		fi, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(wal, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		reg := reopen(dir)
		if n := counter(reg, "mod_recovery_torn_tails_total"); n != 1 {
			t.Errorf("mod_recovery_torn_tails_total = %d, want 1", n)
		}
		if n := counter(reg, "mod_recovery_skipped_total"); n != 0 {
			t.Errorf("mod_recovery_skipped_total = %d, want 0", n)
		}
	})

	t.Run("duplicate replayed", func(t *testing.T) {
		dir, wal := write(true)
		f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(mod.AppendUpdateRecord(nil, us[len(us)-1])); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		reg := reopen(dir)
		if n := counter(reg, "mod_recovery_skipped_total"); n != 1 {
			t.Errorf("mod_recovery_skipped_total = %d, want 1", n)
		}
		if n := counter(reg, "mod_recovery_torn_tails_total"); n != 0 {
			t.Errorf("mod_recovery_torn_tails_total = %d, want 0", n)
		}
	})
}
