package durable_test

// The crash matrix: a scripted run of the durable engine (open, apply,
// checkpoint, apply, checkpoint, apply, checkpoint, close) is crashed at
// literally every mutating filesystem operation, in every fault shape,
// and after each crash the directory must recover — without error — to
// an exact prefix of the applied update stream that includes every
// update the crashed run acknowledged. No crash point may yield a
// partial or corrupt database, and none may lose an ack.
//
// The sweep is exhaustive by construction: a probe run with injection
// disabled counts the script's operations (errfs counting is
// deterministic for a deterministic caller), then every k in 1..total
// is the injection point of one matrix entry. One script and one
// accounting serve every matrix: both commit policies, Apply and
// ApplyBatch.

import (
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/mod"
	"repro/internal/vfs"
)

// matrixConfig is the engine configuration of every matrix run: two
// shards, so the sweep also crosses the multi-store coordination
// (per-shard manifests under one root manifest).
func matrixConfig(fs vfs.FS) durable.Config {
	return durable.Config{Shards: 2, Dim: 2, Tau0: -1, FS: fs}
}

// scriptResult reports how far a scripted run got before the crash.
type scriptResult struct {
	// attempted counts updates handed to Apply or ApplyBatch.
	attempted int
	// acked counts updates whose Apply or ApplyBatch returned nil: each
	// is a durability promise, so any correct recovery holds it.
	acked int
}

// scriptRanges are the update ranges of the script; a checkpoint
// follows each one.
var scriptRanges = [][2]int{{0, 4}, {4, 8}, {8, 10}}

// runScript drives the fixed scenario over us (stream10) against dir
// through the injector inj (cfg.FS must be inj): each range of
// scriptRanges is applied — one ApplyBatch per range when batch is
// set, one Apply per update otherwise — and then checkpointed. An
// apply error is allowed only once the injector has fired. The run
// stops at the first sign of the injected crash: a dead process issues
// no further operations.
func runScript(t *testing.T, dir string, inj *errfs.FS, us []mod.Update, cfg durable.Config, batch bool) scriptResult {
	t.Helper()
	var res scriptResult
	eng, err := durable.Open(dir, cfg)
	if err != nil {
		if !inj.Crashed() {
			t.Fatalf("open failed without a crash: %v", err)
		}
		return res
	}
	defer eng.Close()
	ack := func(to int, err error) bool {
		if err != nil {
			if !inj.Crashed() {
				t.Fatalf("apply up to %d failed without a crash: %v", to, err)
			}
			return false
		}
		res.acked = to
		return !inj.Crashed()
	}
	for _, r := range scriptRanges {
		if batch {
			res.attempted = r[1]
			if _, err := eng.ApplyBatch(us[r[0]:r[1]]); !ack(r[1], err) {
				return res
			}
		} else {
			for i := r[0]; i < r[1]; i++ {
				res.attempted = i + 1
				if !ack(i+1, eng.Apply(us[i])) {
					return res
				}
			}
		}
		if _, err := eng.Checkpoint(); err != nil || inj.Crashed() {
			return res
		}
	}
	return res
}

// sweepCrashMatrix crashes the script at every operation in every fault
// mode under the given commit policy. A sequential Apply run recovers
// an exact prefix of the stream (each ack gates the next apply); a
// batch run recovers, per shard, an exact prefix of that shard's
// subsequence (shards apply a batch in parallel) — the guarantee
// ApplyBatch documents. Either way the prefix covers every acked
// update, and the recovered engine takes further updates across
// another clean cycle.
func sweepCrashMatrix(t *testing.T, commit durable.CommitPolicy, batch bool) {
	us := stream10()
	config := func(fs vfs.FS) durable.Config {
		cfg := matrixConfig(fs)
		cfg.Commit = commit
		return cfg
	}

	// Probe: count the operations of one clean run.
	probe := errfs.New(vfs.OS{}, 0, errfs.FailOp)
	probeDir := filepath.Join(t.TempDir(), "data")
	probeRes := runScript(t, probeDir, probe, us, config(probe), batch)
	total := probe.Ops()
	if probeRes.acked != len(us) || probe.Crashed() {
		t.Fatalf("clean probe run acked %d/%d updates", probeRes.acked, len(us))
	}
	if total < 20 {
		t.Fatalf("probe counted only %d ops — script lost its filesystem work?", total)
	}
	t.Logf("sweeping %d crash points x 3 fault modes", total)

	// The hash partition is fixed, so one clean engine tells the
	// routing of every shard subsequence.
	rec0, err := durable.Open(probeDir, matrixConfig(vfs.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	shardSub := make([][]mod.Update, rec0.NumShards())
	for _, u := range us {
		i := rec0.ShardOf(u.O)
		shardSub[i] = append(shardSub[i], u)
	}
	_ = rec0.Close()

	for _, mode := range []errfs.Mode{errfs.FailOp, errfs.ShortWrite, errfs.FailSync} {
		for k := 1; k <= total; k++ {
			dir := filepath.Join(t.TempDir(), "data")
			inj := errfs.New(vfs.OS{}, k, mode)
			res := runScript(t, dir, inj, us, config(inj), batch)
			if !inj.Crashed() {
				t.Fatalf("mode=%v k=%d: injection never fired (%d ops)", mode, k, inj.Ops())
			}

			// Recovery with a healthy filesystem must succeed and yield
			// an exact prefix covering every ack.
			rec, err := durable.Open(dir, matrixConfig(vfs.OS{}))
			if err != nil {
				t.Fatalf("mode=%v k=%d: recovery failed: %v\ntrace:\n%s",
					mode, k, err, traceOf(inj))
			}
			if batch {
				for i, sub := range shardSub {
					sdb := rec.Store(i).DB()
					j := prefixLen(sdb.Tau(), sub)
					acked, attempted := countOwned(sub, us, res.acked), countOwned(sub, us, res.attempted)
					if j < acked || j > attempted {
						t.Fatalf("mode=%v k=%d shard %d: recovered prefix %d (tau %g) outside [acked %d, attempted %d]\ntrace:\n%s",
							mode, k, i, j, sdb.Tau(), acked, attempted, traceOf(inj))
					}
					want := mod.NewDB(2, -1)
					if err := want.ApplyAll(sub[:j]...); err != nil {
						t.Fatal(err)
					}
					if !sdb.StateEqual(want) {
						t.Fatalf("mode=%v k=%d shard %d: recovered state is not shard prefix %d\ntrace:\n%s",
							mode, k, i, j, traceOf(inj))
					}
				}
			} else {
				got := rec.Snapshot()
				j := prefixLen(got.Tau(), us)
				if j < res.acked || j > res.attempted {
					t.Fatalf("mode=%v k=%d: recovered prefix %d (tau %g) outside [acked %d, attempted %d]\ntrace:\n%s",
						mode, k, j, got.Tau(), res.acked, res.attempted, traceOf(inj))
				}
				if !got.StateEqual(prefixDB(t, us, j)) {
					t.Fatalf("mode=%v k=%d: recovered state is not prefix %d — a partial or corrupt database\ntrace:\n%s",
						mode, k, j, traceOf(inj))
				}
			}

			// Append-safety: the recovered engine must accept and
			// persist further updates across another clean cycle. A
			// fresh object is valid after any prefix, including the
			// empty one.
			if err := rec.Apply(mod.New(99, 100, us[0].A, us[0].B)); err != nil {
				t.Fatalf("mode=%v k=%d: apply after recovery: %v", mode, k, err)
			}
			if _, err := rec.Checkpoint(); err != nil {
				t.Fatalf("mode=%v k=%d: checkpoint after recovery: %v", mode, k, err)
			}
			if err := rec.Close(); err != nil {
				t.Fatalf("mode=%v k=%d: close after recovery: %v", mode, k, err)
			}
			rec2, err := durable.Open(dir, matrixConfig(vfs.OS{}))
			if err != nil {
				t.Fatalf("mode=%v k=%d: second recovery failed: %v", mode, k, err)
			}
			if rec2.Tau() != 100 {
				t.Fatalf("mode=%v k=%d: post-recovery update lost (tau %g)", mode, k, rec2.Tau())
			}
			if err := rec2.Close(); err != nil {
				t.Fatalf("mode=%v k=%d: final close: %v", mode, k, err)
			}
		}
	}
}

func TestCrashMatrixRecoversExactPrefix(t *testing.T) {
	sweepCrashMatrix(t, durable.CommitFlush, false)
}

func TestCrashMatrixBatch(t *testing.T) {
	sweepCrashMatrix(t, durable.CommitFlush, true)
}

func TestGroupCommitCrashMatrix(t *testing.T) {
	sweepCrashMatrix(t, durable.CommitGroup, false)
}

func TestGroupCommitBatchCrashMatrix(t *testing.T) {
	sweepCrashMatrix(t, durable.CommitGroup, true)
}

// countOwned counts how many of the first n stream updates belong to
// the shard subsequence sub.
func countOwned(sub, us []mod.Update, n int) int {
	inSub := make(map[string]bool, len(sub))
	for _, u := range sub {
		inSub[u.String()] = true
	}
	c := 0
	for _, u := range us[:n] {
		if inSub[u.String()] {
			c++
		}
	}
	return c
}

// traceOf renders an injector's operation log for a failure message.
func traceOf(inj *errfs.FS) string {
	out := ""
	for _, line := range inj.Trace() {
		out += "  " + line + "\n"
	}
	return out
}
