package main

// Crash-recovery smoke support (the CI "crash" job) and E11, the
// durability-overhead experiment.
//
// The smoke test is two modbench invocations around a kill -9:
//
//	modbench -drive http://HOST:PORT -acked acked.jsonl
//	    streams a deterministic chronological update sequence at a
//	    running modserve, appending each update to the acked file only
//	    after the server acknowledged it. When the server dies
//	    mid-stream the driver exits cleanly — that is the point.
//
//	modbench -crashcheck http://HOST:PORT -acked acked.jsonl
//	    after the server restarts on the same -data-dir: fetches
//	    /snapshot and asserts the recovered database is exactly a
//	    prefix of the driven stream that covers every acknowledged
//	    update — nothing acked was lost, nothing out of order or
//	    invented was recovered.
//
// Both sides regenerate the stream from -seed, so the only shared
// artifact is the acked file.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/shard"
)

var (
	driveFlag  = flag.String("drive", "", "stream updates at a running modserve (base URL) and record acks; crash-recovery smoke driver")
	checkFlag  = flag.String("crashcheck", "", "verify a restarted modserve (base URL) recovered an ack-covering prefix of the driven stream")
	streamFlag = flag.Int("stream-updates", 50000, "length of the driven stream (-drive/-crashcheck)")
	ackedFlag  = flag.String("acked", "acked.jsonl", "acked-updates file the driver writes and the checker reads")
)

// crashMain dispatches the -drive / -crashcheck modes (they bypass the
// experiment runner).
func crashMain() {
	var err error
	switch {
	case *driveFlag != "":
		err = runDrive(strings.TrimRight(*driveFlag, "/"))
	case *checkFlag != "":
		err = runCrashCheck(strings.TrimRight(*checkFlag, "/"))
	}
	if err != nil {
		log.Fatal(err)
	}
}

// crashStream derives the deterministic chronological workload from a
// seed: object creations interleaved into direction changes and a few
// terminations (a terminated object is never updated again), taus
// strictly increasing so every prefix is a valid stream.
func crashStream(seed int64, n int) []mod.Update {
	rng := rand.New(rand.NewSource(seed))
	nobj := n / 50
	if nobj < 8 {
		nobj = 8
	}
	vec := func(scale float64) geom.Vec {
		return geom.Of(scale*(rng.Float64()-0.5), scale*(rng.Float64()-0.5))
	}
	var us []mod.Update
	tau := 0.0
	created := 0
	dead := make(map[mod.OID]bool)
	for len(us) < n {
		tau += 0.1 + 0.4*rng.Float64()
		if created < nobj && (len(us) < nobj || rng.Intn(4) == 0) {
			created++
			us = append(us, mod.New(mod.OID(created), tau, vec(4), vec(400)))
			continue
		}
		o := mod.OID(rng.Intn(created) + 1)
		if dead[o] {
			continue
		}
		if rng.Intn(200) == 0 && len(dead) < nobj/4 {
			dead[o] = true
			us = append(us, mod.Terminate(o, tau))
			continue
		}
		us = append(us, mod.ChDir(o, tau, vec(4)))
	}
	return us
}

// waitHealthy polls /healthz until the server answers (or 15s elapse).
func waitHealthy(base string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after 15s (last: %v)", base, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func runDrive(base string) error {
	if err := waitHealthy(base); err != nil {
		return err
	}
	us := crashStream(*seedFlag, *streamFlag)
	f, err := os.Create(*ackedFlag)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Second}
	acks := 0
	for i, u := range us {
		body, err := json.Marshal(u)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			// The server vanished mid-stream. For the crash smoke test
			// that is the expected outcome: report how far we got and
			// exit cleanly so the checker can take over.
			if acks == 0 {
				_ = f.Close()
				return fmt.Errorf("update 0 never reached the server: %w", err)
			}
			log.Printf("drive: server vanished after %d acked updates (%v)", acks, err)
			return f.Close()
		}
		ok := resp.StatusCode == http.StatusOK
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		_ = resp.Body.Close()
		if !ok {
			_ = f.Close()
			return fmt.Errorf("update %d: http %d: %s", i, resp.StatusCode, msg)
		}
		// Record the ack only after the server confirmed it — each line
		// is written (unbuffered) before the next update is sent, so the
		// acked file never runs ahead of the server.
		if _, err := f.Write(append(body, '\n')); err != nil {
			return err
		}
		acks++
	}
	log.Printf("drive: all %d updates acked (no crash observed)", acks)
	return f.Close()
}

// readAcked parses the driver's ack log, dropping a torn final line (the
// driver itself may have been killed).
func readAcked(path string) ([]mod.Update, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []mod.Update
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var u mod.Update
		if err := json.Unmarshal(line, &u); err != nil {
			if i >= len(lines)-2 {
				break // torn tail
			}
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, u)
	}
	return out, nil
}

func runCrashCheck(base string) error {
	if err := waitHealthy(base); err != nil {
		return err
	}
	us := crashStream(*seedFlag, *streamFlag)
	acked, err := readAcked(*ackedFlag)
	if err != nil {
		return err
	}
	if len(acked) > len(us) {
		return fmt.Errorf("acked file has %d updates but the stream only %d (seed/stream-updates mismatch?)", len(acked), len(us))
	}
	for i, a := range acked {
		want, _ := json.Marshal(us[i])
		got, _ := json.Marshal(a)
		if !bytes.Equal(want, got) {
			return fmt.Errorf("acked update %d is not the stream's: got %s want %s (seed mismatch?)", i, got, want)
		}
	}
	resp, err := http.Get(base + "/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/snapshot: http %d", resp.StatusCode)
	}
	rec, err := mod.LoadJSON(resp.Body)
	if err != nil {
		return fmt.Errorf("decode /snapshot: %w", err)
	}
	// Locate the recovered prefix: taus are strictly increasing, so the
	// database time pins exactly how many stream updates were applied.
	j := 0
	for j < len(us) && us[j].Tau <= rec.Tau() {
		j++
	}
	if j < len(acked) {
		return fmt.Errorf("DATA LOSS: %d updates were acked but the recovered state ends after %d (tau=%g)", len(acked), j, rec.Tau())
	}
	want := mod.NewDB(2, 0)
	if err := want.ApplyAll(us[:j]...); err != nil {
		return fmt.Errorf("rebuild prefix: %w", err)
	}
	if !rec.StateEqual(want) {
		return fmt.Errorf("recovered state is not the stream prefix of length %d", j)
	}
	log.Printf("crashcheck OK: %d acked, recovered prefix %d of %d, state matches exactly", len(acked), j, len(us))
	return nil
}

// e11 — durability overhead (internal/durable): what the journal's
// flush-per-update guarantee costs at ingest, what a checkpoint costs,
// and what recovery costs from a snapshot vs by journal replay.
func e11() error {
	fmt.Println("== E11: durability overhead (internal/durable) ==")
	count := 20000
	if *quickFlag {
		count = 4000
	}
	const p = 4
	us := crashStream(*seedFlag+6, count)
	root, err := os.MkdirTemp("", "modbench-e11-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	applyAll := func(apply func(mod.Update) error) (float64, error) {
		start := time.Now()
		for _, u := range us {
			if err := apply(u); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}

	// Volatile baseline: the same sharded engine with no journal.
	veng, err := shard.FromDB(mod.NewDB(2, 0), shard.Config{Shards: p, Workers: p})
	if err != nil {
		return err
	}
	volT, err := applyAll(veng.Apply)
	if err != nil {
		return err
	}

	// Durable, flushed per update (the kill -9 guarantee modserve runs
	// with), then a checkpoint, then recovery from that snapshot.
	fdir := filepath.Join(root, "flush")
	feng, err := durable.Open(fdir, durable.Config{Shards: p, Workers: p, Dim: 2})
	if err != nil {
		return err
	}
	flushT, err := applyAll(feng.Apply)
	if err != nil {
		return err
	}
	ckStart := time.Now()
	infos, err := feng.Checkpoint()
	if err != nil {
		return err
	}
	ckT := time.Since(ckStart).Seconds()
	snapBytes := 0
	for _, info := range infos {
		snapBytes += info.SnapshotBytes
	}
	if err := feng.Close(); err != nil {
		return err
	}
	rsStart := time.Now()
	reng, err := durable.Open(fdir, durable.Config{Shards: p, Workers: p, Dim: 2})
	if err != nil {
		return err
	}
	recSnapT := time.Since(rsStart).Seconds()
	if err := reng.Close(); err != nil {
		return err
	}

	// Durable with batched journal writes (no per-update flush), closed
	// without a checkpoint so reopening must replay the whole journal.
	bdir := filepath.Join(root, "batch")
	beng, err := durable.Open(bdir, durable.Config{Shards: p, Workers: p, Dim: 2, Commit: durable.CommitNone})
	if err != nil {
		return err
	}
	batchT, err := applyAll(beng.Apply)
	if err != nil {
		return err
	}
	if err := beng.Sync(); err != nil {
		return err
	}
	if err := beng.Close(); err != nil {
		return err
	}
	rrStart := time.Now()
	breng, err := durable.Open(bdir, durable.Config{Shards: p, Workers: p, Dim: 2})
	if err != nil {
		return err
	}
	recReplayT := time.Since(rrStart).Seconds()
	replayed := 0
	for _, info := range breng.Recovery() {
		replayed += info.Replay.Applied
	}
	if err := breng.Close(); err != nil {
		return err
	}
	if replayed != count {
		return fmt.Errorf("journal replay recovered %d of %d updates", replayed, count)
	}

	ups := func(t float64) float64 { return float64(count) / t }
	emitBench(benchRecord{Exp: "e11", Name: "ingest-volatile", P: p, N: count,
		Seconds: volT, UpdatesPerSec: ups(volT)})
	emitBench(benchRecord{Exp: "e11", Name: "ingest-durable-flush", P: p, N: count,
		Seconds: flushT, UpdatesPerSec: ups(flushT)})
	emitBench(benchRecord{Exp: "e11", Name: "ingest-durable-batched", P: p, N: count,
		Seconds: batchT, UpdatesPerSec: ups(batchT)})
	emitBench(benchRecord{Exp: "e11", Name: "checkpoint", P: p, N: count,
		Seconds: ckT, Bytes: snapBytes})
	emitBench(benchRecord{Exp: "e11", Name: "recovery-snapshot", P: p, N: count,
		Seconds: recSnapT})
	emitBench(benchRecord{Exp: "e11", Name: "recovery-replay", P: p, N: count,
		Seconds: recReplayT, Events: replayed})

	table("mode\tingest s\tupdates/s\tvs volatile", [][]string{
		{"volatile", fmt.Sprintf("%.3g", volT), fmt.Sprintf("%.0f", ups(volT)), "1.00x"},
		{"durable (flush/update)", fmt.Sprintf("%.3g", flushT), fmt.Sprintf("%.0f", ups(flushT)), fmt.Sprintf("%.2fx", flushT/volT)},
		{"durable (batched)", fmt.Sprintf("%.3g", batchT), fmt.Sprintf("%.0f", ups(batchT)), fmt.Sprintf("%.2fx", batchT/volT)},
	})
	fmt.Printf("checkpoint (P=%d): %.3g ms, %d snapshot bytes\n", p, ckT*1e3, snapBytes)
	fmt.Printf("recovery: %.3g ms from snapshot, %.3g ms replaying %d journal entries\n",
		recSnapT*1e3, recReplayT*1e3, replayed)
	return nil
}
