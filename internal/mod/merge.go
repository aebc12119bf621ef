package mod

// Union, Merge and Partition: the composition primitives behind
// internal/shard. A sharded engine holds P disjoint DBs; Partition
// splits one database into such a family, Union reassembles their epoch
// snapshots into one view, and Merge thaws that view into a database.
// All three read their sources through EpochSnapshot, so none holds a
// source's lock while it copies.

import (
	"fmt"

	"repro/internal/trajectory"
)

// Union combines snapshots with pairwise-disjoint object sets into one
// snapshot: the union of the objects and of their speed bounds, and tau
// the maximum of the parts' taus. It copies the object and bound maps
// once; the result has epoch 0 and no change log (Snap.Diff refuses
// it), so it is for encoding and reading, not for incremental caches.
func Union(snaps ...*Snap) (*Snap, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: union of zero snapshots", ErrBadOperation)
	}
	n := 0
	for _, s := range snaps {
		n += len(s.objs)
	}
	out := &Snap{
		dim:    snaps[0].dim,
		tau:    snaps[0].tau,
		objs:   make(map[OID]trajectory.Trajectory, n),
		bounds: make(map[OID]float64),
	}
	for i, s := range snaps {
		if s.dim != out.dim {
			return nil, fmt.Errorf("%w: union dim %d vs %d", ErrDimMismatch, s.dim, out.dim)
		}
		for o, tr := range s.objs {
			if _, dup := out.objs[o]; dup {
				return nil, fmt.Errorf("%w: %s present in more than one shard (shard %d)", ErrExists, o, i)
			}
			out.objs[o] = tr
		}
		for o, v := range s.bounds {
			out.bounds[o] = v
		}
		if s.tau > out.tau {
			out.tau = s.tau
		}
	}
	return out, nil
}

// Merge combines databases with pairwise-disjoint object sets into one
// independent database: the Union of their epoch snapshots. The inputs
// are not modified; the result shares no mutable state with them.
func Merge(dbs ...*DB) (*DB, error) {
	snaps := make([]*Snap, len(dbs))
	for i, db := range dbs {
		snaps[i] = db.EpochSnapshot()
	}
	u, err := Union(snaps...)
	if err != nil {
		return nil, err
	}
	// Union's maps are its own, so the database may adopt them.
	return &DB{dim: u.dim, tau: u.tau, objs: u.objs, bounds: u.bounds}, nil
}

// Partition splits the database into p parts routed by route(oid) (which
// must return a value in [0, p)). Every part inherits the full database
// tau — so a chronological update stream routed by the same function
// stays chronological per part. The source is not modified.
func (db *DB) Partition(p int, route func(OID) int) ([]*DB, error) {
	if p <= 0 {
		return nil, fmt.Errorf("%w: partition into %d parts", ErrBadOperation, p)
	}
	s := db.EpochSnapshot()
	parts := make([]*DB, p)
	for i := range parts {
		parts[i] = &DB{
			dim:    s.dim,
			objs:   make(map[OID]trajectory.Trajectory),
			bounds: make(map[OID]float64),
			tau:    s.tau,
		}
	}
	for o, tr := range s.objs {
		i := route(o)
		if i < 0 || i >= p {
			return nil, fmt.Errorf("%w: route(%s) = %d outside [0,%d)", ErrBadOperation, o, i, p)
		}
		parts[i].objs[o] = tr
		if v, ok := s.bounds[o]; ok {
			parts[i].bounds[o] = v
		}
	}
	return parts, nil
}
