package mod

// Copy-on-write epoch snapshots: the one view of the state (O, T, tau)
// that readers, query fan-out and the snapshot codec share. Every
// mutation bumps the database's epoch counter; the first reader after a
// mutation pays one O(n) map copy under the read lock and publishes it,
// and every subsequent reader of the same epoch gets that immutable view
// with two atomic loads and no lock at all. This rebuild is the only
// place that copies the object map under db.mu: DB.Snapshot, Merge,
// Partition and SaveBinary all start from the Snap it returns,
// so neither a query nor a checkpoint contends with the writer for the
// shard lock beyond that one copy per epoch.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trajectory"
)

// Snap is an immutable point-in-time view of a database: the object
// map, dimension and tau as of one epoch. It shares the trajectory map
// with every other holder of the same epoch's snapshot — safe because
// nothing ever mutates a published Snap (trajectories are immutable
// values and the map itself is never written after publication).
type Snap struct {
	dim    int
	tau    float64
	epoch  uint64
	objs   map[OID]trajectory.Trajectory
	bounds map[OID]float64
	gens   map[OID]uint64
}

// Dim returns the spatial dimension.
func (s *Snap) Dim() int { return s.dim }

// Tau returns the last-update time the snapshot was taken at.
func (s *Snap) Tau() float64 { return s.tau }

// MaxTau is the aggregate last-update time of a set of per-shard
// snapshots — the tau a query over all of them is answered as of. It is
// -Inf for an empty set.
func MaxTau(snaps []*Snap) float64 {
	t := math.Inf(-1)
	for _, s := range snaps {
		if s.tau > t {
			t = s.tau
		}
	}
	return t
}

// Epoch returns the database epoch the snapshot reflects.
func (s *Snap) Epoch() uint64 { return s.epoch }

// Len returns the number of objects in the snapshot.
func (s *Snap) Len() int { return len(s.objs) }

// Traj returns the trajectory of object o as of the snapshot.
func (s *Snap) Traj(o OID) (trajectory.Trajectory, error) {
	tr, ok := s.objs[o]
	if !ok {
		return trajectory.Trajectory{}, fmt.Errorf("%w: %s", ErrNotFound, o)
	}
	return tr, nil
}

// Objects returns the snapshot's OIDs in ascending order.
func (s *Snap) Objects() []OID {
	out := make([]OID, 0, len(s.objs))
	for o := range s.objs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Trajectories returns the snapshot's object map. The map is SHARED
// with every holder of this snapshot and must be treated as read-only;
// callers that need to mutate must copy. This is the zero-copy seed
// path for query sweeps (query.TrajSource).
func (s *Snap) Trajectories() map[OID]trajectory.Trajectory { return s.objs }

// SpeedBound returns o's declared maximum speed as of the snapshot.
func (s *Snap) SpeedBound(o OID) (float64, bool) {
	v, ok := s.bounds[o]
	return v, ok
}

// Gen returns o's generation stamp as of the snapshot (see DB.Gen).
// Caches derived from an older snapshot compare stamps to find exactly
// the objects that changed in between; an object absent from the stamp
// map reads as generation 0, which is consistent with DB.Gen.
func (s *Snap) Gen(o OID) uint64 { return s.gens[o] }

// EpochSnapshot returns an immutable snapshot of the current epoch.
// The fast path is lock-free: if the cached snapshot is current, it is
// returned after two atomic loads. Otherwise one reader rebuilds the
// cache under the read lock (rebuilds are serialized on snapMu so a
// write burst costs one copy, not one per waiting reader) and
// publishes it for everyone.
//
// The epoch counter is bumped under the write lock after each
// mutation, so a cached snapshot whose epoch equals the current epoch
// is exactly the state every mutation so far produced; returning it
// while a writer is mid-apply linearizes the read before that write.
func (db *DB) EpochSnapshot() *Snap {
	if s := db.snap.Load(); s != nil && s.epoch == db.epoch.Load() {
		return s
	}
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	if s := db.snap.Load(); s != nil && s.epoch == db.epoch.Load() {
		return s
	}
	db.mu.RLock()
	objs := make(map[OID]trajectory.Trajectory, len(db.objs))
	for o, tr := range db.objs {
		objs[o] = tr
	}
	bounds := make(map[OID]float64, len(db.bounds))
	for o, v := range db.bounds {
		bounds[o] = v
	}
	gens := make(map[OID]uint64, len(db.gens))
	for o, g := range db.gens {
		gens[o] = g
	}
	s := &Snap{dim: db.dim, tau: db.tau, epoch: db.epoch.Load(), objs: objs, bounds: bounds, gens: gens}
	db.mu.RUnlock()
	db.snap.Store(s)
	return s
}
