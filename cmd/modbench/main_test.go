package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSelectAllRunsThePaperExperiments(t *testing.T) {
	want, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	for _, e := range experiments {
		if want[e.name] {
			ran = append(ran, e.name)
		}
	}
	exp := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7"}
	if !reflect.DeepEqual(ran, exp) || len(want) != len(exp) {
		t.Fatalf("-exp all runs %v (set %v), want %v", ran, want, exp)
	}
}

func TestSelectList(t *testing.T) {
	want, err := selectExperiments("e1, e3 ,e7")
	if err != nil {
		t.Fatal(err)
	}
	if exp := map[string]bool{"e1": true, "e3": true, "e7": true}; !reflect.DeepEqual(want, exp) {
		t.Fatalf("got %v, want %v", want, exp)
	}
}

func TestSelectRejectsNamesItDoesNotRun(t *testing.T) {
	for _, tc := range []struct {
		spec, says string
	}{
		{"e99", `unknown experiment "e99"`},
		{"e1 ,E2", `unknown experiment "E2"`},
		{"e1,", `unknown experiment ""`},
		{"e8,e9", "BenchmarkE8Historian"},
		{"e9", "BenchmarkE9Envelope"},
		{"e10", "past-sweep"},
		{"e11", "ingest-durable"},
		{"e3,e12", "ingest-durable"},
		{"e13", "TestRoutingIgnoresColdSubscriptions"},
		{"e14", "TestDifferentialAlibiVsOracle"},
		{"e1,e15", "TestBroadPhaseCandidatesFollowTheQuery"},
	} {
		want, err := selectExperiments(tc.spec)
		if err == nil {
			t.Errorf("-exp %q: accepted as %v", tc.spec, want)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, tc.says) || !strings.Contains(msg, "valid: all, e1, e2, e3, e4, e5, e6, e7") {
			t.Errorf("-exp %q: error %q does not say %q and list the valid names", tc.spec, msg, tc.says)
		}
	}
}
