package main

// e15 — uncertainty broad phase (internal/query.BeadIndex): the
// space-time box R-tree + gen-stamped track cache, as the engine runs
// it, against the reference scan (query.PossiblyWithin, query.Alibi)
// that evaluates the bead kernel for every chain. The workload is a
// large, spatially spread fleet (10k objects over a ~1000-wide arena;
// 2k under -quick) asked small-radius possibly-within queries, so the
// broad phase can discard almost the whole population by box
// intersection where the scan must touch every object. Every answer is
// compared bit-for-bit between the two paths — the speedup must be free
// of semantic drift — and the full-size run enforces the >= 5x
// acceptance floor on possibly-within throughput. Alibi pairs measure
// the track cache alone (two objects per query; no fan-out to prune).
// The committed baseline is bench/bead_index.json; CI gates -quick runs
// against it.

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bead"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/shard"
)

func e15() error {
	fmt.Println("== E15: uncertainty broad phase (bead index + track cache vs full scan) ==")
	nObjects, nQueries, nAlibi := 10000, 200, 1000
	if *quickFlag {
		nObjects, nQueries, nAlibi = 2000, 60, 300
	}
	const (
		arena       = 1000.0 // coordinate spread; queries probe radius ~5
		defaultVmax = 1.5
		horizon     = 30.0
	)
	rng := rand.New(rand.NewSource(*seedFlag + 15))
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}

	// Fleet: creations spread over the first few time units, one declared
	// bound per object, then two direction changes apiece across the
	// horizon. Everything stays live, so each track ends in a cap the
	// broad phase must handle on its closed-form side path.
	db := mod.NewDB(2, -1)
	tau := 0.5
	step := 4.0 / float64(nObjects)
	for i := 1; i <= nObjects; i++ {
		if err := db.Apply(mod.New(mod.OID(i), tau, vec(2), vec(arena))); err != nil {
			return err
		}
		tau += step
		if err := db.Apply(mod.Bound(mod.OID(i), tau, 0.5+2*rng.Float64())); err != nil {
			return err
		}
		tau += step
	}
	step = (horizon - tau) / float64(2*nObjects+1)
	for round := 0; round < 2; round++ {
		for i := 1; i <= nObjects; i++ {
			if err := db.Apply(mod.ChDir(mod.OID(i), tau, vec(2))); err != nil {
				return err
			}
			tau += step
		}
	}

	type pwQ struct {
		q      geom.Vec
		lo, hi float64
	}
	pws := make([]pwQ, nQueries)
	for i := range pws {
		lo := 5 + 20*rng.Float64()
		pws[i] = pwQ{q: vec(0.9 * arena), lo: lo, hi: lo + 3}
	}
	type alibiQ struct {
		o1, o2 mod.OID
		lo, hi float64
	}
	als := make([]alibiQ, nAlibi)
	for i := range als {
		o1 := mod.OID(rng.Intn(nObjects) + 1)
		o2 := mod.OID(rng.Intn(nObjects) + 1)
		for o2 == o1 {
			o2 = mod.OID(rng.Intn(nObjects) + 1)
		}
		lo := 5 + 20*rng.Float64()
		als[i] = alibiQ{o1: o1, o2: o2, lo: lo, hi: lo + 2 + 8*rng.Float64()}
	}

	// The reference: the scan evaluates the bead kernel for every chain
	// of the unsharded database (query.PossiblyWithin, query.Alibi). It
	// is timed once; every engine below must answer bit-identically.
	snap := db.EpochSnapshot()
	scanPW := make([]string, len(pws))
	start := time.Now()
	for i, q := range pws {
		ans, err := query.PossiblyWithin(snap, q.q, 5, q.lo, q.hi, defaultVmax)
		if err != nil {
			return err
		}
		scanPW[i] = ans.String()
	}
	scanS := time.Since(start).Seconds()
	emitBench(benchRecord{Exp: "e15", Name: "pw-scan",
		N: nObjects, Seconds: scanS, UpdatesPerSec: float64(nQueries) / scanS})

	alibiString := func(res bead.Result) string {
		if res.Possible {
			return fmt.Sprintf("possible@%x", math.Float64bits(res.At))
		}
		return "impossible"
	}
	// An alibi takes microseconds: the pair list is walked alibiReps
	// times so the timed stretch is tens of milliseconds, not a few.
	const alibiReps = 20
	scanAl := make([]string, len(als))
	start = time.Now()
	for r := 0; r < alibiReps; r++ {
		for i, q := range als {
			res, err := query.Alibi(snap, q.o1, q.o2, q.lo, q.hi, defaultVmax)
			if err != nil {
				return err
			}
			scanAl[i] = alibiString(res)
		}
	}
	scanAlS := time.Since(start).Seconds() / alibiReps
	emitBench(benchRecord{Exp: "e15", Name: "alibi-scan",
		N: nAlibi, Seconds: scanAlS, UpdatesPerSec: float64(nAlibi) / scanAlS})

	var rows [][]string
	speedupAt := map[int]float64{}
	for _, p := range []int{1, 4} {
		eng, err := shard.FromDB(db.Snapshot(), shard.Config{Shards: p, Workers: p})
		if err != nil {
			return err
		}
		// The first query builds the per-shard indexes: the one-time
		// construction is charged to pw-index.
		start = time.Now()
		for i, q := range pws {
			ans, _, err := eng.PossiblyWithin(q.q, 5, q.lo, q.hi, defaultVmax)
			if err != nil {
				return err
			}
			if got := ans.String(); got != scanPW[i] {
				return fmt.Errorf("e15: P=%d query %d: broad phase diverges from scan:\nscan  %s\nindex %s",
					p, i, scanPW[i], got)
			}
		}
		ixS := time.Since(start).Seconds()
		speedupAt[p] = scanS / ixS
		emitBench(benchRecord{Exp: "e15", Name: "pw-index", P: p,
			N: nObjects, Seconds: ixS, UpdatesPerSec: float64(nQueries) / ixS, Speedup: scanS / ixS})
		rows = append(rows, []string{fmt.Sprintf("possibly-within P=%d", p),
			fmt.Sprintf("%.0f", float64(nQueries)/scanS), fmt.Sprintf("%.0f", float64(nQueries)/ixS),
			fmt.Sprintf("%.1fx", scanS/ixS), "bit-identical"})

		// Alibi on the same engine, indexes warm: steady-state per-query
		// cost, where the cache trades two track rebuilds for two map
		// lookups.
		start = time.Now()
		for r := 0; r < alibiReps; r++ {
			for i, q := range als {
				res, _, err := eng.Alibi(q.o1, q.o2, q.lo, q.hi, defaultVmax)
				if err != nil {
					return err
				}
				if got := alibiString(res); got != scanAl[i] {
					return fmt.Errorf("e15: P=%d alibi %d (%v): index says %s, scan says %s",
						p, i, als[i], got, scanAl[i])
				}
			}
		}
		ixAlS := time.Since(start).Seconds() / alibiReps
		emitBench(benchRecord{Exp: "e15", Name: "alibi-index", P: p,
			N: nAlibi, Seconds: ixAlS, UpdatesPerSec: float64(nAlibi) / ixAlS,
			Speedup: scanAlS / ixAlS})
		rows = append(rows, []string{fmt.Sprintf("alibi P=%d", p),
			fmt.Sprintf("%.0f", float64(nAlibi)/scanAlS), fmt.Sprintf("%.0f", float64(nAlibi)/ixAlS),
			fmt.Sprintf("%.1fx", scanAlS/ixAlS), "bit-identical"})
	}

	table("query\tscan q/s\tindex q/s\tspeedup\tanswers", rows)
	if !*quickFlag {
		for _, p := range []int{1, 4} {
			if speedupAt[p] < 5 {
				return fmt.Errorf("e15: possibly-within broad-phase speedup at P=%d is %.2fx, acceptance floor is 5x",
					p, speedupAt[p])
			}
		}
		fmt.Printf("possibly-within broad phase >= 5x over the scan at %d objects, answers bit-identical\n", nObjects)
	}
	return nil
}
