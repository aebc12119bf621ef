// Package shard is the horizontally partitioned MOD engine: it
// hash-partitions the object set by OID across P independent shards,
// each owning its own mod.DB (and therefore its own lock and, during
// queries, its own kinetic sweep state). Updates route to the shard of
// their object; queries fan out across shards, one goroutine per shard,
// and merge at a coordinator (see fanout.go).
//
// The partitioning invariant: every object lives in exactly one shard,
// chosen by a fixed hash of its OID, and every update to that object is
// applied by that shard alone. A chronological update stream therefore
// stays chronological within each shard (a subsequence of a
// chronological sequence is chronological), which is all mod.DB's
// update discipline requires. The aggregate last-update time Tau() is
// the maximum of the per-shard taus; after any globally chronological
// stream it equals the tau a single unsharded DB would report, because
// the shard that received the final update carries it.
//
// What sharding buys: independent write locks, and reads that fan out —
// each shard scans or sweeps only its own objects, in parallel. It does
// not change how much sweeping a query does: a k-NN runs one sweep over
// the curves that can reach its answer, whatever the partition
// (query.RunScans), and a within sweeps, per shard, only the curves
// that can come down to its constant.
// Correctness of the merged answers is argued per query in fanout.go
// and DESIGN.md ("Sharded evaluation", "Threshold-bounded sweep").
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sub"
	"repro/internal/trajectory"
)

// Config parametrizes an engine.
type Config struct {
	// Shards is the partition count P; 0 or 1 means unsharded.
	Shards int
	// Dim is the spatial dimension (New only; FromDB inherits the
	// source's).
	Dim int
	// Tau0 is the initial last-update time of every shard (New only).
	Tau0 float64
}

// Engine is a sharded moving object database. All methods are safe for
// concurrent use; updates to different shards proceed in parallel.
type Engine struct {
	shards []*mod.DB
	dim    int
	// metrics is the optional observability hook (see Instrument in
	// metrics.go); nil means uninstrumented.
	metrics atomic.Pointer[metrics]

	// subMu guards the lazily created materialized-subscription
	// registry and the obs registry it should instrument into.
	subMu  sync.Mutex
	subReg *sub.Registry
	subObs *obs.Registry

	// beadMu guards the lazily created per-shard uncertainty broad-phase
	// indexes (see bead.go).
	beadMu sync.Mutex
	beadIx []*query.BeadIndex
}

func (c Config) normalized() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// New builds an empty sharded database for objects in R^cfg.Dim with
// per-shard last-update time cfg.Tau0.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.normalized()
	if cfg.Dim <= 0 {
		return nil, errors.New("shard: dimension must be positive")
	}
	shards := make([]*mod.DB, cfg.Shards)
	for i := range shards {
		shards[i] = mod.NewDB(cfg.Dim, cfg.Tau0)
	}
	return &Engine{shards: shards, dim: cfg.Dim}, nil
}

// FromDB partitions an existing database across cfg.Shards shards. With
// cfg.Shards <= 1 the engine adopts db directly (no copy), so an
// unsharded deployment pays nothing for going through the engine. With
// P > 1 the source is split by the OID hash and not modified further;
// the engine owns the parts.
func FromDB(db *mod.DB, cfg Config) (*Engine, error) {
	cfg = cfg.normalized()
	e := &Engine{dim: db.Dim()}
	if cfg.Shards == 1 {
		e.shards = []*mod.DB{db}
		return e, nil
	}
	parts, err := db.Partition(cfg.Shards, func(o mod.OID) int {
		return int(hashOID(o) % uint64(cfg.Shards))
	})
	if err != nil {
		return nil, err
	}
	e.shards = parts
	return e, nil
}

// FromShards adopts pre-partitioned databases as the engine's shards —
// the recovery path: a durable store recovers each shard's database
// independently (snapshot + journal replay) and hands the set back to
// the engine without re-partitioning. The adoption is validated: the
// partitioning invariant (every object lives in the shard its OID
// hashes to) is what makes update routing and fan-out merges correct,
// so a mis-filed object is an error here, not a latent wrong answer.
func FromShards(dbs []*mod.DB) (*Engine, error) {
	if len(dbs) == 0 {
		return nil, errors.New("shard: FromShards needs at least one shard")
	}
	dim := dbs[0].Dim()
	for i, db := range dbs {
		if db.Dim() != dim {
			return nil, fmt.Errorf("shard: shard %d has dim %d, shard 0 has %d", i, db.Dim(), dim)
		}
		for _, o := range db.Objects() {
			if want := int(hashOID(o) % uint64(len(dbs))); want != i {
				return nil, fmt.Errorf("shard: object %s found in shard %d, owned by shard %d", o, i, want)
			}
		}
	}
	return &Engine{shards: dbs, dim: dim}, nil
}

// Single adopts db as a one-shard engine: the unsharded backend, with
// no partitioning or fan-out overhead.
func Single(db *mod.DB) *Engine {
	e, err := FromDB(db, Config{Shards: 1})
	if err != nil {
		// FromDB with Shards == 1 adopts the DB and cannot fail.
		panic(err)
	}
	return e
}

// hashOID mixes an OID into a well-distributed 64-bit value (the
// splitmix64 finalizer), so dense sequential OIDs spread evenly across
// shards.
func hashOID(o mod.OID) uint64 {
	x := uint64(o)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NumShards returns the partition count P.
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardOf returns the index of the shard owning o.
func (e *Engine) ShardOf(o mod.OID) int {
	return int(hashOID(o) % uint64(len(e.shards)))
}

// Shard exposes one partition (tests, diagnostics).
func (e *Engine) Shard(i int) *mod.DB { return e.shards[i] }

// Dim returns the spatial dimension.
func (e *Engine) Dim() int { return e.dim }

// Apply routes one update to its object's shard. Chronology is enforced
// per shard: the update time must exceed the owning shard's tau.
func (e *Engine) Apply(u mod.Update) error {
	i := e.ShardOf(u.O)
	err := e.shards[i].Apply(u)
	e.recordUpdate(i, err)
	return err
}

// ApplyAll applies updates in order, stopping at the first error.
func (e *Engine) ApplyAll(us ...mod.Update) error {
	for i, u := range us {
		if err := e.Apply(u); err != nil {
			return fmt.Errorf("shard: update %d (%s): %w", i, u, err)
		}
	}
	return nil
}

// ApplyBatch ingests a batch of updates: one pass of the OID router
// groups them by owning shard (preserving batch order within each
// group, which preserves per-shard chronology), then the per-shard
// groups are applied in parallel, one goroutine per shard, each under a
// single lock/listener session (mod.DB.ApplyBatch). It returns the
// total number of updates applied across shards and the join of any
// per-shard errors. Error semantics are per shard: a rejected update
// stops its own shard's group at that point but does not stop the other
// shards' groups — callers that need all-or-nothing ordering across
// shards should use ApplyAll.
func (e *Engine) ApplyBatch(us []mod.Update) (int, error) {
	if len(us) == 0 {
		return 0, nil
	}
	e.recordBatch(len(us))
	if len(e.shards) == 1 {
		n, err := e.shards[0].ApplyBatch(us)
		e.recordUpdates(0, n, err)
		return n, err
	}
	groups := make([][]mod.Update, len(e.shards))
	for _, u := range us {
		i := e.ShardOf(u.O)
		groups[i] = append(groups[i], u)
	}
	applied := make([]int, len(e.shards))
	err := e.forEach(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		n, aerr := e.shards[i].ApplyBatch(groups[i])
		applied[i] = n
		e.recordUpdates(i, n, aerr)
		if aerr != nil {
			return fmt.Errorf("shard %d: %w", i, aerr)
		}
		return nil
	})
	total := 0
	for _, n := range applied {
		total += n
	}
	return total, err
}

// Load bulk-loads a pre-existing trajectory into its shard.
func (e *Engine) Load(o mod.OID, tr trajectory.Trajectory) error {
	return e.shards[e.ShardOf(o)].Load(o, tr)
}

// OnUpdate registers a listener on every shard; it observes all applied
// updates. When updates are applied concurrently from several
// goroutines, the listener is invoked concurrently too and must be safe
// for that (mod.Journal is; see its locking).
func (e *Engine) OnUpdate(l mod.Listener) {
	for _, db := range e.shards {
		db.OnUpdate(l)
	}
}

// Tau returns the aggregate last-update time: the maximum over shards.
func (e *Engine) Tau() float64 {
	t := e.shards[0].Tau()
	for _, db := range e.shards[1:] {
		if st := db.Tau(); st > t {
			t = st
		}
	}
	return t
}

// Len returns the total object count across shards.
func (e *Engine) Len() int {
	n := 0
	for _, db := range e.shards {
		n += db.Len()
	}
	return n
}

// Traj returns the trajectory of o from its shard.
func (e *Engine) Traj(o mod.OID) (trajectory.Trajectory, error) {
	return e.shards[e.ShardOf(o)].Traj(o)
}

// Snapshot composes a single unsharded copy of the whole database:
// union of the objects, max of the taus. It merges the shards' epoch
// snapshots in one map copy and takes no shard lock of its own, so it
// never blocks updates.
func (e *Engine) Snapshot() *mod.DB {
	merged, err := mod.Merge(e.shards...)
	if err != nil {
		// Disjointness and equal dims are structural invariants of the
		// engine; a failure here is a bug, not a runtime condition.
		panic(fmt.Sprintf("shard: snapshot merge: %v", err))
	}
	return merged
}

// Snapshots captures one consistent per-shard view for a fan-out query
// or a subscription build (sub.Source). These are MVCC epoch snapshots
// (mod.DB.EpochSnapshot): after the first read of an epoch the
// per-shard cost is two atomic loads — no shard lock, no map copy — so
// neither query fan-out nor the subscription registry contends with the
// sweeper/writer for the shard lock.
func (e *Engine) Snapshots() []*mod.Snap {
	out := make([]*mod.Snap, len(e.shards))
	for i, db := range e.shards {
		out[i] = db.EpochSnapshot()
	}
	return out
}

// Subscriptions returns the engine's materialized-subscription registry
// (internal/sub), creating it on first use. The registry ingests the
// engine's update feed and maintains every continuing query
// incrementally, so the cost of an update is proportional to the
// subscriptions it can affect, not to the subscription count. One
// registry serves all shards: per-shard update streams are
// chronological, and the registry tolerates the bounded cross-shard
// interleaving a listener fan-in produces.
func (e *Engine) Subscriptions() *sub.Registry {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.subReg == nil {
		e.subReg = sub.NewRegistry(e)
		if e.subObs != nil {
			e.subReg.Instrument(e.subObs)
		}
	}
	return e.subReg
}

// CloseSubscriptions shuts the subscription registry down, terminating
// every stream with sub.ErrClosed. Safe to call when no registry was
// ever created, and idempotent.
func (e *Engine) CloseSubscriptions() {
	e.subMu.Lock()
	r := e.subReg
	e.subMu.Unlock()
	if r != nil {
		r.Close()
	}
}
