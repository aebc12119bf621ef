package main

import (
	"strings"
	"testing"

	"repro/internal/durable"
)

func TestDurabilityFlagsNeedDataDir(t *testing.T) {
	for _, name := range []string{"commit", "checkpoint-every"} {
		err := checkDurabilityFlags("", []string{"addr", name, "shards"})
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s without -data-dir: %v, want an error naming the flag", name, err)
		}
		if err := checkDurabilityFlags("/var/lib/mod", []string{"addr", name, "data-dir"}); err != nil {
			t.Errorf("-%s with -data-dir rejected: %v", name, err)
		}
	}
	if err := checkDurabilityFlags("", []string{"addr", "shards", "load", "seed-demo", "pprof"}); err != nil {
		t.Errorf("in-memory flags rejected: %v", err)
	}
	if err := checkDurabilityFlags("", nil); err != nil {
		t.Errorf("no flags rejected: %v", err)
	}
}

// TestCommitPolicies: -commit has two contracts, and a retired or
// unknown name is an error that names both.
func TestCommitPolicies(t *testing.T) {
	for s, want := range map[string]durable.CommitPolicy{"": durable.CommitFlush, "flush": durable.CommitFlush, "group": durable.CommitGroup} {
		if got, err := parseCommitPolicy(s); err != nil || got != want {
			t.Errorf("-commit %q = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"sync", "none", "fsync"} {
		_, err := parseCommitPolicy(s)
		if err == nil || !strings.Contains(err.Error(), "flush") || !strings.Contains(err.Error(), "group") {
			t.Errorf("-commit %q: %v, want an error naming flush and group", s, err)
		}
	}
}
