package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of a comparison of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one end-to-end metric of one workload over the
// untraced runs of a set.
func (s *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Results {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge compares the medians of a metric in two sets against its
// bound. worse is how far b's median is on the wrong side of a's, as a
// share of a's. When either side's own runs spread wider than the
// bound, the sets cannot tell a regression from noise.
func judge(def metricDef, a, b []float64) (worse, widest float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if def.Better == "higher" {
		worse = -worse
	}
	widest = max(spread(a), spread(b))
	switch {
	// Set-up time is a few tens of milliseconds of process start: its
	// runs spread wide, and the driver too judges it by medians alone.
	case widest > def.Bound && def.Name != "setup_s":
		verdict = verdictUnresolved
	case worse > def.Bound:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return worse, widest, verdict
}

// runDiff prints one row per pairing of end-to-end metric and
// workload, and fails when any is worse. It never folds the rows into
// one score: a gain on one workload does not pay for a loss on another.
func runDiff(w io.Writer, pathA, pathB string) error {
	a, err := loadResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return err
	}
	// A tabwriter holds its cells until Flush, which reports the first
	// write error; the prints into it cannot fail before that.
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	_, _ = fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tspread\tbound\tverdict\truns")
	bad := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(wl.name, def.Name), b.values(wl.name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, widest, verdict := judge(def, va, vb)
			if verdict == verdictWorse {
				bad++
			}
			_, _ = fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\t%d/%d\n",
				wl.name, def.Name, median(va), median(vb), 100*worse, 100*widest, 100*def.Bound, verdict, len(va), len(vb))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return errors.New(fmt.Sprint(bad, " pairing(s) worse than their bound"))
	}
	return nil
}
