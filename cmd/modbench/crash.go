package main

// Crash-recovery smoke support (the CI "crash-recovery" job).
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
	"strings"
	"time"

	"repro/internal/geom"
	"repro/internal/mod"
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
	rec, err := mod.LoadBinary(resp.Body)
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
