package main

import (
	"strings"
	"testing"
)

func TestDurabilityFlagsNeedDataDir(t *testing.T) {
	for _, name := range []string{"commit", "commit-interval", "commit-max-batch", "checkpoint-every"} {
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
