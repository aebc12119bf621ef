package main

import (
	"context"
	"strings"
)

// counters is a flat view of the server's obs registry as
// GET /metrics?format=json serves it. A plain counter or gauge keeps
// its name; a child of a labelled family is name{label=value,...}; a
// histogram contributes two entries, with .count and .sum appended.
type counters map[string]float64

// flattenMetrics turns the registry's JSON view into counters.
func flattenMetrics(doc map[string]any) counters {
	out := counters{}
	var put func(key string, v any)
	put = func(key string, v any) {
		switch v := v.(type) {
		case float64:
			out[key] = v
		case map[string]any:
			if _, hist := v["count"].(float64); hist {
				out[key+".count"], _ = v["count"].(float64)
				out[key+".sum"], _ = v["sum"].(float64)
				return
			}
			for labels, child := range v {
				put(key+"{"+labels+"}", child)
			}
		}
	}
	for name, v := range doc {
		put(name, v)
	}
	return out
}

// minus returns c - before, entry by entry. An entry absent from
// before counts from zero: a labelled child appears with its first
// observation.
func (c counters) minus(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// total sums a family over all its label sets. field is "" for
// counters and gauges, ".count" or ".sum" for histograms.
func (c counters) total(family, field string) float64 {
	sum := 0.0
	for k, v := range c {
		if !strings.HasSuffix(k, field) {
			continue
		}
		k = strings.TrimSuffix(k, field)
		if k == family || (strings.HasPrefix(k, family+"{") && strings.HasSuffix(k, "}")) {
			sum += v
		}
	}
	return sum
}

// highest returns the largest value of a gauge family over its label
// sets.
func (c counters) highest(family string) float64 {
	best := 0.0
	for k, v := range c {
		if (k == family || strings.HasPrefix(k, family+"{")) && v > best {
			best = v
		}
	}
	return best
}

// scrapeMetrics reads the server's registry.
func scrapeMetrics(ctx context.Context, base string) (counters, error) {
	var doc map[string]any
	if err := getJSON(ctx, base+"/metrics?format=json", &doc); err != nil {
		return nil, err
	}
	return flattenMetrics(doc), nil
}

// memStats is the part of runtime.MemStats the proc layer reports,
// read from the child's /debug/vars.
type memStats struct {
	PauseTotalNs float64
	TotalAlloc   float64
}

func scrapeMemStats(ctx context.Context, base string) (memStats, error) {
	var doc struct {
		Memstats memStats `json:"memstats"`
	}
	err := getJSON(ctx, base+"/debug/vars", &doc)
	return doc.Memstats, err
}

// ratio is a/b, and 0 when nothing was counted: a layer the workload
// never entered reports zeros, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 { //modlint:allow floatcmp -- division guard on a count
		return 0
	}
	return a / b
}
