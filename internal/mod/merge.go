package mod

// Merge and Partition: the composition primitives behind internal/shard.
// A sharded engine holds P disjoint DBs; Partition splits one database
// into such a family and Merge reassembles a single consistent view.
// Both read their sources through EpochSnapshot, so neither holds a
// source's lock while it copies.

import (
	"fmt"

	"repro/internal/trajectory"
)

// Merge combines databases with pairwise-disjoint object sets into one
// independent database: the union of the objects and of their speed
// bounds, and tau the maximum of the parts' taus. The inputs are not
// modified; the result shares no mutable state with them.
func Merge(dbs ...*DB) (*DB, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("%w: merge of zero databases", ErrBadOperation)
	}
	snaps := make([]*Snap, len(dbs))
	n := 0
	for i, db := range dbs {
		snaps[i] = db.EpochSnapshot()
		n += len(snaps[i].objs)
	}
	out := &DB{
		dim:    snaps[0].dim,
		objs:   make(map[OID]trajectory.Trajectory, n),
		bounds: make(map[OID]float64),
		tau:    snaps[0].tau,
	}
	for i, s := range snaps {
		if s.dim != out.dim {
			return nil, fmt.Errorf("%w: merge dim %d vs %d", ErrDimMismatch, s.dim, out.dim)
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
