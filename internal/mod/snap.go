package mod

// Copy-on-write epoch snapshots: the one view of the state (O, T, tau)
// that readers, query fan-out and the snapshot codec share. Every
// mutation bumps the database's epoch counter; the first reader after a
// mutation pays one O(n) copy of the object and bound maps under the
// read lock and publishes it, and every subsequent reader of the same
// epoch gets that immutable view with two atomic loads and no lock at
// all. This rebuild is the only place that copies the object map under
// db.mu: DB.Snapshot, Merge, Partition and SaveBinary all start from
// the Snap it returns, so neither a query nor a checkpoint contends
// with the writer for the shard lock beyond that one copy per epoch.
//
// A snapshot also captures its prefix of the database's change log
// (DB.changes), which costs a slice header, so two snapshots of one
// database name the objects that changed between them (Snap.Diff) in
// time proportional to the changes, not to the object count. Caches
// derived from one snapshot — the bead index in internal/query — bring
// themselves up to another that way.

import (
	"fmt"
	"math"
	"slices"
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
	// db is the database the snapshot was taken of and changes its
	// change log as of the snapshot's epoch; both are nil for a Union.
	db      *DB
	changes []change
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

// Diff returns, ascending, the objects whose state differs between s
// and other: every object an update or Load named after the earlier of
// the two snapshots, up to the later one. It works in either direction
// and costs O(k log k) for k changes, whatever the object count. ok is
// false when the two are not snapshots of one database, or either is a
// Union; the caller then has to compare the snapshots whole.
func (s *Snap) Diff(other *Snap) (changed []OID, ok bool) {
	if s.db == nil || s.db != other.db {
		return nil, false
	}
	newer, older := s, other
	if newer.epoch < older.epoch {
		newer, older = older, newer
	}
	// The newer log holds every object's latest change up to its epoch
	// (compaction drops only superseded entries), so the objects changed
	// after older.epoch are exactly its entries past that epoch.
	log := newer.changes
	i := sort.Search(len(log), func(i int) bool { return log[i].epoch > older.epoch })
	if i == len(log) {
		return nil, true
	}
	changed = make([]OID, len(log)-i)
	for j, c := range log[i:] {
		changed[j] = c.o
	}
	slices.Sort(changed)
	return slices.Compact(changed), true
}

// change is one change-log entry: an update or Load named o and
// produced epoch.
type change struct {
	o     OID
	epoch uint64
}

// compactFactor bounds the change log: once it holds more than
// compactFactor entries per object, it is cut to each object's latest.
// A compaction costs O(entries) and comes at most once every
// (compactFactor-1)·objects changes, so it is O(1) per change, and the
// log never holds more than compactFactor·objects entries.
const compactFactor = 2

// logChange advances the epoch and records that o produced it. Called
// with mu held for writing, after the mutation.
func (db *DB) logChange(o OID) {
	db.changes = append(db.changes, change{o: o, epoch: db.epoch.Add(1)})
	if len(db.changes) > compactFactor*len(db.objs) {
		db.changes = compactChanges(db.changes, compactFactor*len(db.objs)+1)
	}
}

// compactChanges returns the latest entry per object of log, in epoch
// order, in a new array of capacity c: published snapshots still read
// the old one.
func compactChanges(log []change, c int) []change {
	seen := make(map[OID]struct{}, c/compactFactor)
	out := make([]change, 0, c)
	for i := len(log) - 1; i >= 0; i-- {
		if _, dup := seen[log[i].o]; !dup {
			seen[log[i].o] = struct{}{}
			out = append(out, log[i])
		}
	}
	slices.Reverse(out)
	return out
}

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
	s := &Snap{dim: db.dim, tau: db.tau, epoch: db.epoch.Load(), objs: objs, bounds: bounds,
		db: db, changes: slices.Clip(db.changes)}
	db.mu.RUnlock()
	db.snap.Store(s)
	return s
}
