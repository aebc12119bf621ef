package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/shard"
)

// Probes time one public function of one layer, single-threaded, on
// inputs drawn from the workload's own request stream and on the
// database as the traced run left it. They split the backend span
// further than spans recorded from outside the packages can.

// probeInputs is how many requests of an op a probe replays.
const probeInputs = 200

// timeMs runs f and returns how long it took in milliseconds.
func timeMs(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start).Nanoseconds()) / 1e6, err
}

// firstOf returns the first n requests of an op in a lane.
func firstOf(lane []request, o op, n int) []*request {
	var out []*request
	for i := range lane {
		if lane[i].op == o {
			if out = append(out, &lane[i]); len(out) == n {
				break
			}
		}
	}
	return out
}

// probe measures the layers below the backend span. knnSpanMs is the
// median backend.KNN span of the traced run.
func probe(r *report, eng *shard.Engine, p *plan, knnSpanMs float64) error {
	lane := p.lanes[0]
	if err := probeSweep(r, eng, firstOf(lane, opKNN, probeInputs), knnSpanMs); err != nil {
		return err
	}
	if err := probeBead(r, eng, firstOf(lane, opPWithin, probeInputs), firstOf(lane, opAlibi, probeInputs)); err != nil {
		return err
	}
	return probeMod(r, eng, p.pop.updates)
}

// probeSweep runs query.RunPast for each k-NN request on every shard's
// epoch snapshot, as the fan-out does, one shard after the other.
func probeSweep(r *report, eng *shard.Engine, reqs []*request, knnSpanMs float64) error {
	if len(reqs) == 0 {
		return nil
	}
	var total, slowest []float64
	var events, ms float64
	for _, q := range reqs {
		f := gdist.PointSq{Point: q.point}
		sum, worst := 0.0, 0.0
		for i := 0; i < eng.NumShards(); i++ {
			snap := eng.Shard(i).EpochSnapshot()
			d, err := timeMs(func() error {
				st, err := query.RunPast(snap, f, q.lo, q.hi, query.NewKNN(q.k))
				events += float64(st.Events)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe RunPast: %w", err)
			}
			sum += d
			worst = max(worst, d)
		}
		ms += sum
		total = append(total, sum)
		slowest = append(slowest, worst)
	}
	r.set("query.runpast_ms", median(total))
	r.set("core.ns_per_event", ratio(ms*1e6, events))
	// The fan-out waits for its slowest shard; what the backend span
	// holds beyond that is snapshot acquisition, the candidate pool
	// and the coordinator's final sweep.
	r.set("shard.fanout_merge_ms", knnSpanMs-median(slowest))
	return nil
}

// probeBead times the broad-phase possibly-within on a synced index,
// the first index call after an update, and the alibi decision.
func probeBead(r *report, eng *shard.Engine, pwithin, alibi []*request) error {
	if len(pwithin) > 0 {
		type shardIndex struct {
			db *mod.DB
			ix *query.BeadIndex
		}
		// Private copies: a probe update must not reach the engine.
		var ixs []shardIndex
		for i := 0; i < eng.NumShards(); i++ {
			db := eng.Shard(i).Snapshot()
			ixs = append(ixs, shardIndex{db, query.NewBeadIndex(db)})
		}
		ask := func(q *request) error {
			for _, s := range ixs {
				if _, _, err := s.ix.PossiblyWithin(s.db.EpochSnapshot(), q.point, q.radius, q.lo, q.hi, requestVmax); err != nil {
					return err
				}
			}
			return nil
		}
		if err := ask(pwithin[0]); err != nil { // builds the indexes
			return fmt.Errorf("probe BeadIndex: %w", err)
		}
		var ms []float64
		for _, q := range pwithin {
			d, err := timeMs(func() error { return ask(q) })
			if err != nil {
				return fmt.Errorf("probe BeadIndex: %w", err)
			}
			ms = append(ms, d)
		}
		r.set("query.beadindex_pwithin_ms", median(ms))

		var syncs []float64
		s := ixs[0]
		live, err := liveObjects(s.db)
		if err != nil {
			return err
		}
		for i := 0; i < probeInputs && len(live) > 0; i++ {
			o := live[i%len(live)]
			if err := s.db.Apply(mod.ChDir(o, s.db.Tau()+1e-6, geom.Of(1, 1))); err != nil {
				return fmt.Errorf("probe BeadIndex sync: %w", err)
			}
			snap := s.db.EpochSnapshot()
			d, err := timeMs(func() error {
				_, err := s.ix.TrackOf(snap, o, requestVmax)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe BeadIndex sync: %w", err)
			}
			syncs = append(syncs, d)
		}
		r.set("query.beadindex_sync_ms", median(syncs))
	}
	if len(alibi) > 0 {
		whole := eng.Snapshot()
		var us []float64
		for _, q := range alibi {
			d, err := timeMs(func() error {
				_, err := query.Alibi(whole, q.o1, q.o2, q.lo, q.hi, requestVmax)
				return err
			})
			if err != nil {
				return fmt.Errorf("probe Alibi: %w", err)
			}
			us = append(us, 1000*d)
		}
		r.set("bead.alibi_us", median(us))
	}
	return nil
}

// probeMod times the store's own costs at the size the run ended at:
// the epoch snapshot with and without a write in between, the deep
// copy a checkpoint takes, and the binary batch codec.
func probeMod(r *report, eng *shard.Engine, updates []mod.Update) error {
	db := eng.Shard(0).Snapshot()
	db.EpochSnapshot()
	const hits = 1000
	d, _ := timeMs(func() error {
		for i := 0; i < hits; i++ {
			db.EpochSnapshot()
		}
		return nil
	})
	r.set("mod.epoch_snapshot_hit_ns", d*1e6/hits)

	var rebuilds []float64
	live, err := liveObjects(db)
	if err != nil {
		return err
	}
	for i := 0; i < probeInputs && len(live) > 0; i++ {
		if err := db.Apply(mod.ChDir(live[i%len(live)], db.Tau()+1e-6, geom.Of(1, 1))); err != nil {
			return fmt.Errorf("probe EpochSnapshot: %w", err)
		}
		d, _ := timeMs(func() error { db.EpochSnapshot(); return nil })
		rebuilds = append(rebuilds, 1000*d)
	}
	r.set("mod.epoch_snapshot_rebuild_us", median(rebuilds))

	var copies []float64
	for i := 0; i < 20; i++ {
		d, _ := timeMs(func() error {
			for s := 0; s < eng.NumShards(); s++ {
				eng.Shard(s).Snapshot()
			}
			return nil
		})
		copies = append(copies, d)
	}
	r.set("mod.snapshot_copy_ms", median(copies))

	var enc, dec []float64
	for i := 0; i < probeInputs; i++ {
		lo := (i * ingestBatch) % (len(updates) - ingestBatch)
		batch := updates[lo : lo+ingestBatch]
		var buf bytes.Buffer
		d, err := timeMs(func() error { return mod.EncodeUpdatesBinary(&buf, batch) })
		if err != nil {
			return fmt.Errorf("probe EncodeUpdatesBinary: %w", err)
		}
		enc = append(enc, 1000*d)
		var rd io.Reader = bytes.NewReader(buf.Bytes())
		d, err = timeMs(func() error {
			_, err := mod.DecodeUpdatesBinary(rd)
			return err
		})
		if err != nil {
			return fmt.Errorf("probe DecodeUpdatesBinary: %w", err)
		}
		dec = append(dec, 1000*d)
	}
	r.set("mod.encode_batch_us", median(enc))
	r.set("mod.decode_batch_us", median(dec))
	return nil
}
