package workload

// Concurrent update-stream replay: the driver for exercising a sharded
// engine from many goroutines. A chronological stream cannot be applied
// concurrently without structure — two goroutines racing on the same
// object would break the per-object (and per-shard) chronology — so the
// stream is partitioned by a route function first and each partition is
// applied, in order, from its own goroutine. Routing with the engine's
// own ShardOf keeps every shard's stream chronological, which is
// exactly the discipline internal/shard requires.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mod"
)

// ReplayConcurrent partitions us by route(u.O) into parts groups,
// preserving relative order within each group, and applies each group
// from its own goroutine via apply (which must be safe for concurrent
// calls on distinct partitions — e.g. shard.Engine.Apply). It returns
// the joined errors of all partitions; a failed partition stops at its
// first error without affecting the others.
func ReplayConcurrent(us []mod.Update, parts int, route func(mod.OID) int, apply func(mod.Update) error) error {
	if parts <= 1 {
		for _, u := range us {
			if err := apply(u); err != nil {
				return err
			}
		}
		return nil
	}
	groups := make([][]mod.Update, parts)
	for _, u := range us {
		i := route(u.O)
		if i < 0 || i >= parts {
			return fmt.Errorf("workload: route(%s) = %d outside [0,%d)", u.O, i, parts)
		}
		groups[i] = append(groups[i], u)
	}
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, g []mod.Update) {
			defer wg.Done()
			for _, u := range g {
				if err := apply(u); err != nil {
					errs[i] = fmt.Errorf("workload: partition %d at %s: %w", i, u, err)
					return
				}
			}
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}
