package durable_test

// The durability driver: one seeded harness that runs the durable
// engine on vfs.Mem, the in-memory power-loss filesystem, through
// process lives. Each life opens the data dir through fault injectors
// (internal/errfs), drives it — Apply, ApplyBatch, checkpoints, some
// landing between an update's journal entry and its ack — until a
// fault kills it or its budget runs out, and crashes: a kill under
// CommitFlush (what that policy promises to survive), a power loss
// (vfs.Mem.Crash) under CommitGroup. After every recovery it asserts:
//
//   - acked => recovered: every update whose Apply or ApplyBatch
//     returned nil, and every update an earlier recovery held;
//   - recovered ⊆ issued: each object's state is that of a prefix of
//     its issued updates, and each store holds a prefix of its journal
//     order, nothing in between lost;
//   - chronology: the database is the updates it holds, applied in time
//     order;
//   - a refused Open (the wrong dimension) writes nothing.
//
// A failing seed prints the filesystem operations of the life that
// crashed and of the recovery. MOD_SCENARIOS sets the seeds of each
// seeded configuration.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/errfs"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/vfs"
)

// root is the data dir: the operator's, durable before the first Open.
const root = "/data"

// drive is one configuration of the driver.
type drive struct {
	shards, reshard int // P of the first life, and of every later one (0: keep)
	writers         int // per shard, in seeded lives
	commit          durable.CommitPolicy
	batch           bool // seeded writers also use ApplyBatch
}

// run is one seeded run: its filesystem, the current life's injectors,
// and the model each recovery is checked against.
type run struct {
	t      *testing.T
	d      drive
	seed   int64
	rng    *rand.Rand
	mem    *vfs.Mem
	life   int
	inj    *errfs.FS   // kills the process at its fault
	once   []*errfs.FS // transient faults stacked in front of inj
	before []string    // the operations of the life before
	tau    atomic.Int64

	mu     sync.Mutex
	logs   [][]mod.Update   // since the last recovery: each store's journal order
	acked  map[float64]bool // taus that must be recovered
	kept   []mod.Update     // what the last recovery held, in tau order
	midAck map[float64]bool // taus a checkpoint lands on between entry and ack
}

func newRun(t *testing.T, d drive, seed int64) *run {
	r := &run{t: t, d: d, seed: seed, rng: rand.New(rand.NewSource(seed)), mem: vfs.NewMem(),
		acked: map[float64]bool{}, midAck: map[float64]bool{}}
	r.tau.Store(100)
	if r.mem.MkdirAll(root) != nil || r.mem.SyncDir("/") != nil {
		t.Fatal("no data dir")
	}
	return r
}

func (r *run) fatalf(format string, args ...any) {
	r.t.Helper()
	tail := func(tr []string) string { return strings.Join(tr[max(0, len(tr)-60):], "\n  ") }
	r.t.Fatalf("seed %d life %d: %s\nthe life before:\n  %s\nthis life:\n  %s",
		r.seed, r.life, fmt.Sprintf(format, args...), tail(r.before), tail(r.inj.Trace()))
}

// fs is the current life's filesystem: the injectors over the Mem.
func (r *run) fs() vfs.FS {
	if len(r.once) > 0 {
		return r.once[len(r.once)-1]
	}
	return r.inj
}

func (r *run) faulted() bool {
	fired := r.inj.Fired()
	for _, f := range r.once {
		fired = fired || f.Fired()
	}
	return fired
}

// open opens the data dir; nil means it failed, which only a fault may
// cause.
func (r *run) open(fsys vfs.FS, shards int) *durable.Engine {
	r.t.Helper()
	eng, err := durable.Open(root, durable.Config{Shards: shards, Dim: 2, Tau0: -1, FS: fsys, Commit: r.d.commit})
	if err != nil && !r.faulted() {
		r.fatalf("open without a fault: %v", err)
	}
	return eng
}

// hook makes each shard's database log its updates in journal order,
// and checkpoint the engine on the updates drawn for it.
func (r *run) hook(eng *durable.Engine) {
	for i := 0; i < eng.NumShards(); i++ {
		r.logs = append(r.logs, nil)
		log := len(r.logs) - 1
		eng.Store(i).DB().OnUpdate(func(u mod.Update) {
			r.mu.Lock()
			r.logs[log] = append(r.logs[log], u)
			mid := r.midAck[u.Tau]
			r.mu.Unlock()
			if mid {
				r.checkpoint(eng)
			}
		})
	}
}

// apply issues us (one Apply, or one ApplyBatch of several), records
// the ack, and returns how many the database applied: a racing writer
// on the shard may have taken a later tau first.
func (r *run) apply(eng *durable.Engine, us ...mod.Update) int {
	n, err := 1, error(nil)
	if len(us) > 1 {
		n, err = eng.ApplyBatch(us)
	} else if err = eng.Apply(us[0]); err != nil && !errors.Is(err, mod.ErrNotDurable) {
		n = 0
	}
	switch {
	case err == nil:
		r.mu.Lock()
		for _, u := range us {
			r.acked[u.Tau] = true
		}
		r.mu.Unlock()
	case r.faulted():
	case r.d.writers < 2 || !errors.Is(err, mod.ErrChronology) || errors.Is(err, mod.ErrNotDurable):
		r.t.Errorf("seed %d life %d: apply without a fault: %v", r.seed, r.life, err)
	}
	return n
}

func (r *run) checkpoint(eng *durable.Engine) {
	if _, err := eng.Checkpoint(); err != nil && !r.faulted() {
		r.t.Errorf("seed %d life %d: checkpoint without a fault: %v", r.seed, r.life, err)
	}
}

// live runs one process life: the refused open, the open (checked when
// it recovers), body, a close (which must succeed without a fault), and
// the crash.
func (r *run) live(shards int, body func(*durable.Engine)) {
	r.t.Helper()
	r.refusedOpen()
	if eng := r.open(r.fs(), shards); eng != nil {
		r.check(eng)
		r.hook(eng)
		body(eng)
		if err := eng.Close(); err != nil && !r.faulted() {
			r.fatalf("close without a fault: %v", err)
		}
	}
	if r.t.Failed() {
		r.fatalf("the life failed")
	}
	if r.d.commit == durable.CommitGroup {
		r.mem.Crash(r.seed*1000 + int64(r.life))
	}
	r.before = r.inj.Trace()
	r.life++
}

// finish recovers without faults at P = shards, checks, and shows the
// recovered engine takes updates across another clean cycle, and acks
// none after Close.
func (r *run) finish(shards int) {
	r.t.Helper()
	r.inj, r.once = errfs.New(r.mem, 0, errfs.FailOp), nil
	eng := r.open(r.inj, shards)
	if eng.NumShards() != shards {
		r.fatalf("recovered %d shards, want %d", eng.NumShards(), shards)
	}
	r.check(eng)
	r.hook(eng)
	tau := float64(r.tau.Add(1))
	if len(r.kept) > 0 {
		tau = max(tau, r.kept[len(r.kept)-1].Tau+1)
	}
	r.apply(eng, mod.New(1<<41, tau, geom.Of(1, 0), geom.Of(0, 0)))
	r.checkpoint(eng)
	if err := eng.Close(); err != nil {
		r.fatalf("close after recovery: %v", err)
	}
	if err := eng.Apply(mod.Terminate(1<<41, tau+1)); !errors.Is(err, mod.ErrNotDurable) {
		r.fatalf("an update applied after Close returned %v, not mod.ErrNotDurable", err)
	}
	r.check(r.open(r.inj, shards))
}

// cleanLife runs one life on fsys (the Mem, or a wrapper of it)
// without faults and wants every update the database applied
// recovered, not only the acked ones.
func (r *run) cleanLife(fsys vfs.FS, shards int, body func(*durable.Engine)) {
	r.t.Helper()
	r.inj, r.once = errfs.New(fsys, 0, errfs.FailOp), nil
	r.live(shards, body)
	applied := len(r.kept) + 1 // finish applies one more
	for _, log := range r.logs {
		applied += len(log)
	}
	if r.finish(shards); len(r.kept) != applied {
		r.t.Fatalf("recovered %d of %d applied updates", len(r.kept), applied)
	}
}

// refusedOpen opens an existing data dir as 3-D: the refusal may only
// make sure directories exist, and must leave the Mem as it was.
func (r *run) refusedOpen() {
	r.t.Helper()
	if _, err := vfs.ReadFile(r.mem, path.Join(root, "MANIFEST")); err != nil {
		return
	}
	before, tr := memTree(r.mem, "/"), errfs.New(r.mem, 0, errfs.FailOp)
	if eng, err := durable.Open(root, durable.Config{Dim: 3, FS: tr}); err == nil {
		_ = eng.Close()
		r.fatalf("a 2-D data dir opened as 3-D")
	}
	for _, op := range tr.Trace() {
		if !strings.HasPrefix(op, "mkdirall(") {
			r.fatalf("the refused open wrote: %s", op)
		}
	}
	if memTree(r.mem, "/") != before {
		r.fatalf("the refused open changed the data dir")
	}
}

// memTree renders every path under dir with its contents.
func memTree(fsys vfs.FS, dir string) string {
	names, _ := fsys.ReadDir(dir)
	out := dir + "/\n"
	for _, n := range names {
		if data, err := vfs.ReadFile(fsys, path.Join(dir, n)); err == nil {
			out += fmt.Sprintf("%s %q\n", path.Join(dir, n), data)
		} else {
			out += memTree(fsys, path.Join(dir, n))
		}
	}
	return out
}

// check compares the recovered engine with the model, then makes what
// it holds the kept history, all of which the next recovery must hold.
func (r *run) check(eng *durable.Engine) {
	r.t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	got := eng.Snapshot()
	issued := map[mod.OID][]mod.Update{} // per object, in time order
	for _, us := range append(r.logs, r.kept) {
		for _, u := range us {
			issued[u.O] = append(issued[u.O], u)
		}
	}
	for _, o := range got.Objects() {
		if issued[o] == nil {
			r.fatalf("recovered %s, which was never issued", o)
		}
	}
	held, kept := map[float64]bool{}, []mod.Update(nil)
	for o, us := range issued {
		sort.Slice(us, func(i, j int) bool { return us[i].Tau < us[j].Tau })
		k := heldPrefix(got, o, us)
		if k < 0 {
			r.fatalf("%s's recovered state is no prefix of its %d updates", o, len(us))
		}
		for _, u := range us[:k] {
			held[u.Tau] = true
		}
		kept = append(kept, us[:k]...)
	}
	for tau := range r.acked {
		if !held[tau] {
			r.fatalf("lost the update at tau %g, acked or held by an earlier recovery", tau)
		}
	}
	for i, log := range r.logs {
		for j := 1; j < len(log); j++ {
			if held[log[j].Tau] && !held[log[j-1].Tau] {
				r.fatalf("store %d recovered %s but not %s before it", i, log[j], log[j-1])
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Tau < kept[j].Tau })
	want := mod.NewDB(2, -1)
	if err := want.ApplyAll(kept...); err != nil || !got.StateEqual(want) {
		r.fatalf("the recovered database is not its %d held updates in time order (%v)", len(kept), err)
	}
	r.kept, r.logs, r.acked = kept, nil, held
}

// heldPrefix returns how many of us (one object's updates, in time
// order) the object's state in db is, or -1 if it is no prefix.
func heldPrefix(db *mod.DB, o mod.OID, us []mod.Update) int {
	got, err := db.Traj(o)
	if err != nil {
		return 0
	}
	gotBound, gotBounded := db.SpeedBound(o)
	one := mod.NewDB(2, -1)
	for k, u := range us {
		if one.Apply(u) != nil {
			return -1
		}
		tr, _ := one.Traj(o)
		if bound, bounded := one.SpeedBound(o); tr.Equal(got) && bounded == gotBounded && bound == gotBound {
			return k + 1
		}
	}
	return -1
}

// writer issues one shard's updates in a seeded life, for the objects
// of the shard whose OID is its index modulo the writer count.
type writer struct {
	rng          *rand.Rand
	shard, index int
	next         mod.OID
	alive        []mod.OID
}

// gen draws one update for w's objects among alive.
func (w *writer) gen(r *run, eng *durable.Engine, alive []mod.OID) mod.Update {
	tau := float64(r.tau.Add(1))
	vec := func(s float64) geom.Vec { return geom.Of(s*(w.rng.Float64()-0.5), s*(w.rng.Float64()-0.5)) }
	if len(alive) == 0 || w.rng.Intn(4) == 0 {
		for w.next++; eng.ShardOf(w.next) != w.shard || int(w.next)%r.d.writers != w.index; w.next++ {
		}
		return mod.New(w.next, tau, vec(2), vec(200))
	}
	o := alive[w.rng.Intn(len(alive))]
	if w.rng.Intn(6) == 0 {
		return mod.Terminate(o, tau)
	}
	return mod.ChDir(o, tau, vec(2))
}

// live applies u's effect on which objects are alive.
func live(alive []mod.OID, u mod.Update) []mod.OID {
	switch u.Kind {
	case mod.KindNew:
		return append(alive, u.O)
	case mod.KindTerminate:
		return slices.DeleteFunc(alive, func(o mod.OID) bool { return o == u.O })
	}
	return alive
}

// seeded is the body of a seeded life: every writer takes up to steps
// actions — an update, a batch, a checkpoint, or an update with a
// checkpoint between its journal entry and its ack.
func (r *run) seeded(steps int) func(*durable.Engine) {
	return func(eng *durable.Engine) {
		var wg sync.WaitGroup
		for s := 0; s < eng.NumShards()*r.d.writers; s++ {
			w := &writer{rng: rand.New(rand.NewSource(r.rng.Int63())), shard: s / r.d.writers, index: s % r.d.writers,
				next: mod.OID(1_000_000 * (r.life + 1))}
			for _, u := range r.kept {
				if eng.ShardOf(u.O) == w.shard && int(u.O)%r.d.writers == w.index {
					w.alive = live(w.alive, u)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for step := 0; step < steps && !r.inj.Crashed() && !r.t.Failed(); step++ {
					x := w.rng.Intn(10)
					if x == 0 {
						r.checkpoint(eng)
						continue
					}
					us, alive := make([]mod.Update, 1), slices.Clone(w.alive)
					if x < 3 && r.d.batch {
						us = make([]mod.Update, 2+w.rng.Intn(3))
					}
					for k := range us {
						us[k] = w.gen(r, eng, alive)
						alive = live(alive, us[k])
					}
					if x == 9 {
						r.mu.Lock()
						r.midAck[us[0].Tau] = true
						r.mu.Unlock()
					}
					for _, u := range us[:r.apply(eng, us...)] {
						w.alive = live(w.alive, u)
					}
				}
			}()
		}
		wg.Wait()
	}
}

var crashModes = []errfs.Mode{errfs.FailOp, errfs.ShortWrite, errfs.FailSync}

// TestDurabilityDriver runs every configuration of the driver.
func TestDurabilityDriver(t *testing.T) {
	seeds := 40
	if s := os.Getenv("MOD_SCENARIOS"); s != "" {
		seeds, _ = strconv.Atoi(s)
	}
	// Seeded lives: four per seed, each with a crash point drawn within
	// its operations and, in some, up to two transient faults before it.
	for name, d := range map[string]drive{
		"seeded/flush P=1":                       {shards: 1, writers: 1},
		"seeded/flush P=4 two writers batch":     {shards: 4, writers: 2, batch: true},
		"seeded/group P=1 batch":                 {shards: 1, writers: 1, commit: durable.CommitGroup, batch: true},
		"seeded/group P=4 two writers":           {shards: 4, writers: 2, commit: durable.CommitGroup},
		"seeded/group P=2 re-sharded to 4 batch": {shards: 2, reshard: 4, writers: 2, commit: durable.CommitGroup, batch: true},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			lives, crashes, transient := 0, 0, 0
			for seed := int64(1); seed <= int64(seeds); seed++ {
				r := newRun(t, d, seed)
				for ; r.life < 4; lives++ {
					shards := d.shards
					if r.life > 0 && d.reshard != 0 {
						shards = d.reshard
					}
					ops := 60 * shards * d.writers
					r.inj = errfs.New(r.mem, 1+r.rng.Intn(ops), crashModes[r.rng.Intn(3)])
					r.once = nil
					for n := r.rng.Intn(5); n > 0 && n < 3; n-- {
						r.once = append(r.once, errfs.New(r.fs(), 1+r.rng.Intn(ops/2), errfs.FailOnce))
					}
					r.live(shards, r.seeded(12))
					if r.inj.Fired() {
						crashes++
					}
					if len(r.once) > 0 && r.once[0].Fired() {
						transient++
					}
				}
				r.finish(max(d.shards, d.reshard))
			}
			t.Logf("%d lives: %d crashed, %d had a transient fault", lives, crashes, transient)
		})
	}

	// A checkpoint whose snapshot write fails once leaves the journal on
	// the segment the checkpoint created, and the updates after it are
	// acked by that segment's fsyncs; only the segment's own directory
	// sync makes them survive the power loss that follows. The fault is
	// placed by a probe life without it: a life with one writer is the
	// same operations for the same seed.
	t.Run("failed checkpoint/group", func(t *testing.T) {
		t.Parallel()
		d := drive{shards: 1, writers: 1, commit: durable.CommitGroup}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			probe := newRun(t, d, seed)
			probe.inj = errfs.New(probe.mem, 0, errfs.FailOp)
			probe.live(1, probe.failedCheckpoint)
			at := slices.IndexFunc(probe.before, func(op string) bool {
				return strings.HasPrefix(op, "write(") && strings.Contains(op, "/snap-")
			})
			if at < 0 {
				t.Fatalf("seed %d: the checkpoint wrote no snapshot:\n%s", seed, strings.Join(probe.before, "\n"))
			}
			r := newRun(t, d, seed)
			r.inj = errfs.New(r.mem, 0, errfs.FailOp)
			r.once = []*errfs.FS{errfs.New(r.inj, at+1, errfs.FailOnce)}
			r.live(1, r.failedCheckpoint)
			if !r.once[0].Fired() {
				t.Fatalf("seed %d: the snapshot write never failed", seed)
			}
			r.finish(1)
		}
	})

	// Every crash point of the fixed script, in every mode.
	for name, d := range map[string]drive{
		"crash points/flush apply": {shards: 2},
		"crash points/flush batch": {shards: 2, batch: true},
		"crash points/group apply": {shards: 2, commit: durable.CommitGroup},
		"crash points/group batch": {shards: 2, commit: durable.CommitGroup, batch: true},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sweep(t, d, 20, func(r *run) { r.live(2, r.script) })
		})
	}

	// Every fault point of the Open of a data dir with a torn tail, at
	// its own and a changed shard count. The sweep covers what the open
	// must do: cut the torn tail, and at a new shard count commit the
	// new generation's root manifest.
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("faulted open/P=%d", shards), func(t *testing.T) {
			t.Parallel()
			probe := sweep(t, drive{shards: 2, reshard: shards}, 5, func(r *run) {
				r.fixture()
				r.live(shards, func(*durable.Engine) {})
			})
			trace := strings.Join(probe.inj.Trace(), "\n")
			flip := strings.Contains(trace, "-> "+path.Join(root, "MANIFEST")+")")
			if !strings.Contains(trace, "truncate(") || flip != (shards != 2) {
				t.Fatalf("the open truncated nothing, or rewrote the root manifest = %v:\n%s", flip, trace)
			}
		})
	}
}

// sweep runs the life do sets up once per crash point, in every mode,
// and recovers without faults after each. A probe without a fault
// counts the crash points first (at least least); sweep returns it.
func sweep(t *testing.T, d drive, least int, do func(*run)) *run {
	probe := newRun(t, d, 0)
	probe.inj = errfs.New(probe.mem, 0, errfs.FailOp)
	do(probe)
	total := probe.inj.Ops()
	if total < least {
		t.Fatalf("the probe counted only %d operations", total)
	}
	for _, mode := range crashModes {
		t.Run(mode.String(), func(t *testing.T) { // a run's seed is its crash point
			for k := 1; k <= total; k++ {
				r := newRun(t, d, int64(k))
				r.inj = errfs.New(r.mem, k, mode)
				do(r)
				if !r.inj.Fired() {
					t.Fatalf("k %d: the fault never fired (%d operations)", k, r.inj.Ops())
				}
				r.finish(max(d.shards, d.reshard))
			}
		})
	}
	t.Logf("%d crash points x %d modes", total, len(crashModes))
	return probe
}

// failedCheckpoint is the body of the failed-checkpoint lives: a few
// acked updates, a checkpoint (whose snapshot write the caller's
// injector fails), and a few more acked updates.
func (r *run) failedCheckpoint(eng *durable.Engine) {
	before, after := 1+r.rng.Intn(4), 1+r.rng.Intn(4)
	for i := 0; i < before+after; i++ {
		if i == before {
			r.checkpoint(eng)
		}
		o := mod.OID(1_000_000*(r.life+1) + i)
		r.apply(eng, mod.New(o, float64(r.tau.Add(1)), geom.Of(1, 0), geom.Of(float64(i), 0)))
	}
}

// script is the fixed body of the crash-point sweep: stream10 in three
// ranges, one ApplyBatch or one Apply per update each, a checkpoint
// after each range, until the process is dead.
func (r *run) script(eng *durable.Engine) {
	us := stream10()
	for _, rg := range [][2]int{{0, 4}, {4, 8}, {8, 10}} {
		if r.d.batch {
			r.apply(eng, us[rg[0]:rg[1]]...)
		}
		for i := rg[0]; i < rg[1] && !r.d.batch && !r.inj.Crashed(); i++ {
			r.apply(eng, us[i])
		}
		if r.inj.Crashed() {
			return
		}
		r.checkpoint(eng)
	}
}

// fixture writes, without faults, the data dir of the faulted-open
// sweep: two shards, the first seven updates of history, a checkpoint,
// the remaining four, then one more whose record is cut five bytes
// short, as a crash mid-append leaves it. Opening it replays journal
// tails over snapshots and truncates the torn tail.
func (r *run) fixture() {
	r.t.Helper()
	inj := r.inj
	r.inj = errfs.New(r.mem, 0, errfs.FailOp)
	eng := r.open(r.inj, 2)
	r.hook(eng)
	us, torn := history(), mod.ChDir(2, 12, geom.Of(0.25, -8))
	r.apply(eng, us[:7]...)
	r.checkpoint(eng)
	r.apply(eng, append(us[7:], torn)...)
	seg := path.Join(root, fmt.Sprintf("g0001-shard-%04d", eng.ShardOf(torn.O)), "wal-0000002.wal")
	if err := eng.Close(); err != nil {
		r.t.Fatal(err)
	}
	data, err := vfs.ReadFile(r.mem, seg)
	if err != nil || r.mem.Truncate(seg, int64(len(data)-5)) != nil {
		r.t.Fatal("no segment to tear", err)
	}
	delete(r.acked, torn.Tau)
	r.inj = inj
}
