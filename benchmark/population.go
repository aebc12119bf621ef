package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/mod"
	"repro/internal/workload"
)

// Every server runs with two shards on a plane, as the issue fixes.
const (
	shards = 2
	dim    = 2
)

// datasetSeed generates every population. The database a workload runs
// on is a fixed dataset, as in most database benchmarks: the run's seed
// draws the traffic, and runs on different seeds differ by what was
// asked, not by which two thousand movers happened to exist. (Across
// population seeds the sweep work per query alone varies by 4 %.)
const datasetSeed = 1

// preloadBatch is the size of the binary batches the population is
// loaded in.
const preloadBatch = 512

// population is the database every workload starts from: the updates
// that build it over HTTP, and the same state in the harness's model.
type population struct {
	// updates creates the objects during (0,1], declares speed bounds
	// during (1,2] and replays a workload.Stream history over (2,50].
	updates []mod.Update
	// model is a database with those updates applied. It starts at
	// tau 0 like a fresh modserve.
	model *mod.DB
}

// buildPopulation makes n workload.RandomMovers, a speed bound on a
// boundShare of them, and a history of that many workload.Stream
// updates. RandomMovers bulk-loads trajectories, which a server cannot
// receive over HTTP, so each mover becomes the `new` update that
// creates the same motion.
func buildPopulation(n, history int, boundShare float64) (*population, error) {
	const seed = datasetSeed
	movers, err := workload.RandomMovers(workload.Config{Seed: seed, N: n, Dim: dim})
	if err != nil {
		return nil, err
	}
	p := &population{model: mod.NewDB(dim, 0)}
	add := func(u mod.Update) error {
		if err := p.model.Apply(u); err != nil {
			return fmt.Errorf("population: %s: %w", u, err)
		}
		p.updates = append(p.updates, u)
		return nil
	}
	oids := movers.Objects()
	for i, o := range oids {
		tr, err := movers.Traj(o)
		if err != nil {
			return nil, err
		}
		pc := tr.Pieces()[0]
		tau := float64(i+1) / float64(n)
		if err := add(mod.New(o, tau, pc.A, pc.At(tau))); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	tau := 1.0
	for _, o := range oids {
		if rng.Float64() >= boundShare {
			continue
		}
		tau += 1 / float64(n+1)
		// Random movers reach speed 10*sqrt(2); a bound in [15,25)
		// leaves every bead some room.
		if err := add(mod.Bound(o, tau, 15+10*rng.Float64())); err != nil {
			return nil, err
		}
	}
	hist, err := workload.Stream(p.model, workload.StreamConfig{Seed: seed + 1, Count: history, From: 2, To: 50})
	if err != nil {
		return nil, err
	}
	for _, u := range hist {
		if err := add(u); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// batches encodes the population as binary POST /update/batch bodies.
func (p *population) batches() ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(p.updates); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(p.updates))
		var buf bytes.Buffer
		if err := mod.EncodeUpdatesBinary(&buf, p.updates[lo:hi]); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}
