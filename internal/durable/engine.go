package durable

// Engine: the durable sharded MOD. It composes P per-shard Stores under
// one root manifest and embeds the sharded query engine
// (internal/shard), so callers get the full update/query surface plus
// Checkpoint/Close and crash recovery on Open.
//
// Root layout:
//
//	<dir>/MANIFEST              {"version":1,"dim":d,"shards":P,"generation":g}
//	<dir>/g0001-shard-0000/...  one Store per shard of the current generation
//	<dir>/g0001-shard-0001/...
//
// The root manifest commits to a generation; a generation is an
// immutable choice of shard count. Changing P is a re-shard: recover
// the old generation, merge, re-partition, persist every new shard
// (checkpoint) into generation g+1 directories, and only then flip the
// root manifest — the atomic commit point — so a crash anywhere in
// between leaves the old generation intact and current. Stale
// generations are garbage-collected on the next open.
//
// Per-shard stores give single-writer journals (no cross-shard write
// contention, matching the shard engine's locking) and let checkpoint
// and recovery work shard-at-a-time. Global consistency needs no
// cross-shard coordination: shards partition the object set, an update
// touches exactly one shard, so any combination of per-shard recovery
// points is a legitimate database state — the same argument that makes
// sharded updates correct in the first place (a subsequence of a
// chronological stream is chronological, per shard).

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path"
	"sync"
	"time"

	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// Config parametrizes Open.
type Config struct {
	// Shards is the partition count P. 0 adopts the on-disk value (or 1
	// for a fresh directory); a different value than on disk triggers a
	// re-shard during Open.
	Shards int
	// Dim is the spatial dimension; required for a fresh directory,
	// validated (when non-zero) against an existing one.
	Dim int
	// Tau0 is the initial last-update time of a fresh database.
	Tau0 float64
	// FS is the filesystem to persist through; nil means the real one.
	// Tests substitute a fault injector (internal/errfs).
	FS vfs.FS
	// Registry, when non-nil, receives the durability metrics
	// (checkpoint counts/latency/bytes, recovery stats, journal seqs).
	// Query/update metrics are separate: call Instrument (promoted from
	// the embedded shard engine).
	Registry *obs.Registry
	// Commit selects what an acknowledged update has survived (see
	// CommitPolicy).
	Commit CommitPolicy
}

// rootManifest is the wire form of the engine's root manifest.
type rootManifest struct {
	Version    int    `json:"version"`
	Dim        int    `json:"dim"`
	Shards     int    `json:"shards"`
	Generation uint64 `json:"generation"`
}

// shardDirName names the directory of shard i in generation gen.
func shardDirName(gen uint64, i int) string {
	return fmt.Sprintf("g%04d-shard-%04d", gen, i)
}

// Engine is a durable sharded MOD: the embedded shard.Engine serves
// updates and queries; the stores persist them. All methods are safe
// for concurrent use; Checkpoint runs concurrently with updates and
// queries.
type Engine struct {
	*shard.Engine

	fs     vfs.FS
	dir    string
	gen    uint64
	stores []*Store

	mu     sync.Mutex // serializes Checkpoint/Close
	closed bool

	m *engineMetrics // nil when unregistered
}

// Open opens (creating, recovering, or re-sharding) the durable engine
// rooted at dir. On return the engine is fully recovered and live:
// every update applied through it is journaled, and queries see the
// recovered state.
func Open(dir string, cfg Config) (*Engine, error) {
	start := time.Now()
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: mkdir %s: %w", dir, err)
	}
	e := &Engine{fs: fsys, dir: dir}
	if cfg.Registry != nil {
		e.m = newEngineMetrics(cfg.Registry)
	}

	man, err := readManifest[rootManifest](fsys, path.Join(dir, manifestName))
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return nil, err
	}
	if fresh {
		if cfg.Dim <= 0 {
			return nil, errors.New("durable: fresh data dir needs a positive dimension")
		}
		shards := cfg.Shards
		if shards <= 0 {
			shards = 1
		}
		man = rootManifest{Version: 1, Dim: cfg.Dim, Shards: shards, Generation: 1}
		// The root manifest commits first: a crash right after leaves a
		// manifest whose shard directories open as fresh empty stores,
		// and a crash right before leaves an empty dir re-initialized
		// by the next open. Either way, a consistent empty database.
		if err := writeManifest(fsys, path.Join(dir, manifestName), man); err != nil {
			return nil, err
		}
	} else {
		if man.Version != 1 {
			return nil, fmt.Errorf("durable: %s: unsupported manifest version %d", dir, man.Version)
		}
		if cfg.Dim != 0 && cfg.Dim != man.Dim {
			return nil, fmt.Errorf("durable: %s holds a %d-D database, want %d-D", dir, man.Dim, cfg.Dim)
		}
		// Every shard is checked before any is opened or any garbage is
		// collected: opening recovers a shard, and recovery writes (it
		// cuts a torn tail), so a refusal at shard i after shards 0..i-1
		// had opened would leave them changed.
		for i := 0; i < man.Shards; i++ {
			if err := checkStore(fsys, path.Join(dir, shardDirName(man.Generation, i)), man.Dim); err != nil {
				return nil, err // names the shard's directory
			}
		}
	}
	e.gen = man.Generation
	// Leftovers of other generations (a crashed re-shard, or the
	// previous generation a crash left uncollected) are garbage now —
	// collect them before anything can mistake them for live stores.
	e.gcGenerations()

	opts := StoreOptions{Dim: man.Dim, Tau0: cfg.Tau0, Commit: cfg.Commit, commitMetrics: e.m}
	if cfg.Shards != 0 && cfg.Shards != man.Shards {
		if err := e.reshard(man, cfg, opts); err != nil {
			return nil, err
		}
	} else {
		if err := e.openGeneration(man, cfg, opts); err != nil {
			return nil, err
		}
	}
	e.recordRecovery(time.Since(start))
	return e, nil
}

// openGeneration opens the current generation's stores (recovering
// each) and adopts their databases as the engine's shards.
func (e *Engine) openGeneration(man rootManifest, cfg Config, opts StoreOptions) error {
	stores := make([]*Store, man.Shards)
	dbs := make([]*mod.DB, man.Shards)
	for i := range stores {
		st, err := OpenStore(e.fs, path.Join(e.dir, shardDirName(e.gen, i)), opts)
		if err != nil {
			closeStores(stores[:i])
			return err // names the shard's directory
		}
		stores[i] = st
		dbs[i] = st.DB()
	}
	se, err := shard.FromShards(dbs)
	if err != nil {
		closeStores(stores)
		return err
	}
	e.Engine = se
	e.stores = stores
	return nil
}

// reshard changes the partition count: recover the old generation,
// merge it into one database, re-partition at the new count, persist
// every new shard into generation gen+1, and commit by flipping the
// root manifest. The old generation stays current (and recoverable)
// until the flip; its directories are collected afterwards.
func (e *Engine) reshard(man rootManifest, cfg Config, opts StoreOptions) error {
	old := make([]*mod.DB, man.Shards)
	for i := range old {
		st, err := OpenStore(e.fs, path.Join(e.dir, shardDirName(e.gen, i)), opts)
		if err != nil {
			return fmt.Errorf("durable: re-shard: old shard %d: %w", i, err)
		}
		old[i] = st.DB()
		// The old store was only opened to recover its state; nothing
		// is applied through it, so closing now is safe and releases
		// its journal handle before the directory is collected.
		if err := st.Close(); err != nil {
			return fmt.Errorf("durable: re-shard: close old shard %d: %w", i, err)
		}
	}
	merged, err := mod.Merge(old...)
	if err != nil {
		return fmt.Errorf("durable: re-shard: merge: %w", err)
	}
	se, err := shard.FromDB(merged, shard.Config{Shards: cfg.Shards})
	if err != nil {
		return err
	}
	newGen := man.Generation + 1
	stores := make([]*Store, se.NumShards())
	for i := range stores {
		dir := path.Join(e.dir, shardDirName(newGen, i))
		st, serr := openStoreWithDB(e.fs, dir, se.Shard(i), opts)
		if serr != nil {
			closeStores(stores[:i])
			return fmt.Errorf("durable: re-shard: new shard %d: %w", i, serr)
		}
		if _, serr := st.Checkpoint(); serr != nil {
			_ = st.Close()
			closeStores(stores[:i])
			return fmt.Errorf("durable: re-shard: checkpoint new shard %d: %w", i, serr)
		}
		stores[i] = st
	}
	man.Shards = se.NumShards()
	man.Generation = newGen
	if err := writeManifest(e.fs, path.Join(e.dir, manifestName), man); err != nil {
		closeStores(stores)
		return err
	}
	e.gen = newGen
	e.Engine = se
	e.stores = stores
	e.gcGenerations()
	return nil
}

// closeStores best-effort-closes a partially opened store set.
func closeStores(stores []*Store) {
	for _, st := range stores {
		if st != nil {
			_ = st.Close()
		}
	}
}

// gcGenerations removes shard directories of any generation other than
// the current one. Best-effort: failures leave garbage for next time.
func (e *Engine) gcGenerations() {
	names, err := e.fs.ReadDir(e.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		var g uint64
		var i int
		if _, err := fmt.Sscanf(n, "g%d-shard-%d", &g, &i); err != nil {
			continue
		}
		if shardDirName(g, i) != n || g == e.gen {
			continue
		}
		sub := path.Join(e.dir, n)
		files, err := e.fs.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, f := range files {
			_ = e.fs.Remove(path.Join(sub, f))
		}
		_ = e.fs.Remove(sub)
	}
}

// Apply routes one update to its shard (via the embedded engine) and
// acknowledges it through the shard store's WaitDurable: a nil return
// means applied and durable under the commit policy. An update that
// was applied but could not be made durable returns an error wrapping
// mod.ErrNotDurable.
func (e *Engine) Apply(u mod.Update) error {
	if err := e.Engine.Apply(u); err != nil {
		return err
	}
	return e.waitDurable(e.ShardOf(u.O), u.Tau, u.Tau)
}

// ApplyAll applies us in order through Apply, stopping at the first
// error, so each update is acknowledged as by Apply.
func (e *Engine) ApplyAll(us ...mod.Update) error {
	for i, u := range us {
		if err := e.Apply(u); err != nil {
			return fmt.Errorf("durable: update %d (%s): %w", i, u, err)
		}
	}
	return nil
}

// ApplyBatch ingests a batch (via the embedded engine's sharded batch
// path) and acknowledges it through WaitDurable once per touched shard,
// for the taus of the batch's updates on that shard: a shard applies
// its group in order, so its entries are one run of the journal. The
// applied count reflects in-memory application; the error includes any
// durability failure (wrapping mod.ErrNotDurable), so a nil error acks
// the whole batch as durable.
func (e *Engine) ApplyBatch(us []mod.Update) (int, error) {
	n, err := e.Engine.ApplyBatch(us)
	if n == 0 {
		return n, err
	}
	lo, hi := make([]float64, len(e.stores)), make([]float64, len(e.stores))
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, u := range us {
		i := e.ShardOf(u.O)
		lo[i], hi[i] = min(lo[i], u.Tau), max(hi[i], u.Tau)
	}
	var waitErrs []error
	for i := range e.stores {
		if lo[i] <= hi[i] {
			if werr := e.waitDurable(i, lo[i], hi[i]); werr != nil {
				waitErrs = append(waitErrs, werr)
			}
		}
	}
	return n, errors.Join(err, errors.Join(waitErrs...))
}

// waitDurable acknowledges the updates with taus in [lo, hi] on shard
// i, wrapping a failure in mod.ErrNotDurable.
func (e *Engine) waitDurable(i int, lo, hi float64) error {
	if err := e.stores[i].WaitDurable(lo, hi); err != nil {
		return fmt.Errorf("%w: shard %d: %w", mod.ErrNotDurable, i, err)
	}
	return nil
}

// Generation returns the current on-disk generation.
func (e *Engine) Generation() uint64 { return e.gen }

// Dir returns the engine's root directory.
func (e *Engine) Dir() string { return e.dir }

// Store exposes shard i's store (tests, diagnostics).
func (e *Engine) Store(i int) *Store { return e.stores[i] }

// Recovery reports what opening each shard's store did, indexed by
// shard.
func (e *Engine) Recovery() []RecoveryInfo {
	out := make([]RecoveryInfo, len(e.stores))
	for i, st := range e.stores {
		out[i] = st.Recovery()
	}
	return out
}

// Checkpoint checkpoints every shard's store, sequentially (shard-level
// parallelism would buy little — the work is one snapshot encode and a
// few fsyncs per shard — and a deterministic operation order is what
// lets the fault-injection tests enumerate every crash point). Updates
// and queries proceed concurrently. Returns per-shard results; on
// error, shards checkpointed before the failure keep their new
// checkpoints (each store commits independently), the failing shard
// keeps its old one, and the remainder are not attempted.
func (e *Engine) Checkpoint() ([]CheckpointInfo, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errors.New("durable: engine closed")
	}
	infos := make([]CheckpointInfo, 0, len(e.stores))
	for i, st := range e.stores {
		info, err := st.Checkpoint()
		if err != nil {
			e.recordCheckpoint(infos, time.Since(start), err)
			return infos, fmt.Errorf("durable: checkpoint shard %d: %w", i, err)
		}
		infos = append(infos, info)
	}
	e.recordCheckpoint(infos, time.Since(start), nil)
	return infos, nil
}

// Close flushes and closes every store. The in-memory engine stays
// queryable, but updates are no longer journaled; a final Checkpoint
// before Close is the graceful-shutdown sequence. Any live
// subscription streams are terminated first (sub.ErrClosed), so no
// subscriber outlives the durability guarantee of its deltas.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.CloseSubscriptions()
	var errs []error
	for i, st := range e.stores {
		if err := st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
