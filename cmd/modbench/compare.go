package main

// Bench-regression gate: -compare loads a committed baseline document
// (the bench/*.json artifacts written by -json) and fails the run if
// any throughput record regressed by more than regressFactor. The
// threshold is deliberately generous — CI machines differ from the
// machine that wrote the baseline — so only step-function regressions
// (a lost fast path, a routing index that stopped pruning) trip it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// regressFactor is the allowed throughput slowdown vs the committed
// baseline before the gate fails (>2x regression fails).
const regressFactor = 2.0

func recordKey(r benchRecord) string {
	return fmt.Sprintf("%s/%s/p=%d", r.Exp, r.Name, r.P)
}

// compareBaseline checks this run's records against the baseline at
// path. Only baseline records whose experiment was selected this run
// are compared, so a -exp e13 smoke ignores e14/e15 baselines.
func compareBaseline(path string, ran map[string]bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var doc struct {
		Records []benchRecord `json:"records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	got := make(map[string]benchRecord, len(benchRecords))
	for _, r := range benchRecords {
		got[recordKey(r)] = r
	}
	var failures []error
	fmt.Printf("== bench regression gate vs %s (fail at >%.0fx slowdown) ==\n", path, regressFactor)
	for _, base := range doc.Records {
		if !ran[base.Exp] {
			continue
		}
		key := recordKey(base)
		cur, ok := got[key]
		if !ok {
			failures = append(failures, fmt.Errorf("%s: baseline record missing from this run", key))
			continue
		}
		if base.UpdatesPerSec > 0 && cur.UpdatesPerSec > 0 {
			ratio := cur.UpdatesPerSec / base.UpdatesPerSec
			status := "ok"
			if ratio < 1/regressFactor {
				status = "REGRESSED"
				failures = append(failures, fmt.Errorf(
					"%s: %.0f updates/s vs baseline %.0f (%.2fx)",
					key, cur.UpdatesPerSec, base.UpdatesPerSec, ratio))
			}
			fmt.Printf("  %-40s %.2fx throughput vs baseline  %s\n", key, ratio, status)
		}
	}
	return errors.Join(failures...)
}
