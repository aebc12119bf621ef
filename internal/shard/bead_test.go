package shard

// Broad-phase wiring tests: the coordinator's speed-bound
// pre-validation (one error naming every undeclared object,
// independent of the partition count), and the bead_* metric families
// an instrumented engine must emit for both uncertainty query kinds.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestValidateSpeedBoundsAcrossShards: with declarations required, the
// pre-pass must name EVERY undeclared object in ascending order no
// matter how the population is partitioned, and a usable default or a
// full set of declarations must clear it.
func TestValidateSpeedBoundsAcrossShards(t *testing.T) {
	db, err := workload.RandomMovers(workload.Config{Seed: 9, N: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Declare bounds for the even OIDs only.
	tau := db.Tau()
	for _, o := range db.Objects() {
		if o%2 == 0 {
			tau++
			if err := db.Apply(mod.Bound(o, tau, 3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var want []mod.OID
	for _, o := range db.Objects() {
		if o%2 == 1 {
			want = append(want, o)
		}
	}
	for _, p := range []int{1, 4} {
		eng, err := FromDB(db.Snapshot(), Config{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = eng.PossiblyWithin(geom.Of(0, 0), 5, 0, tau, -1)
		var nsb *query.NoSpeedBoundError
		if !errors.As(err, &nsb) {
			t.Fatalf("P=%d: error %v, want NoSpeedBoundError", p, err)
		}
		if fmt.Sprint(nsb.Objects) != fmt.Sprint(want) {
			t.Errorf("P=%d: named objects %v, want %v", p, nsb.Objects, want)
		}
		if !errors.Is(err, query.ErrNoSpeedBound) {
			t.Errorf("P=%d: error does not unwrap to ErrNoSpeedBound", p)
		}
		// A usable default clears the pre-pass entirely.
		if _, _, err := eng.PossiblyWithin(geom.Of(0, 0), 5, 0, tau, 2); err != nil {
			t.Errorf("P=%d: with default vmax: %v", p, err)
		}
	}
}

// TestBeadMetricsRecorded: an instrumented engine answering both
// uncertainty query kinds through the broad phase must emit every
// bead_* family — including an object-stage prune count for a query
// ball far from the whole population.
func TestBeadMetricsRecorded(t *testing.T) {
	db, err := workload.RandomMovers(workload.Config{Seed: 7, N: 40})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := FromDB(db, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.Instrument(reg)

	// Far outside the population's extent with a small radius: the
	// broad phase must discard everyone at the object stage.
	if _, _, err := eng.PossiblyWithin(geom.Of(5000, 5000), 1, 0, 50, 2); err != nil {
		t.Fatal(err)
	}
	objs := eng.Snapshot().Objects()
	if _, _, err := eng.Alibi(objs[0], objs[1], 0, 50, 2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`bead_queries_total{kind="possibly-within"} 1`,
		`bead_queries_total{kind="alibi"} 1`,
		"bead_broadphase_candidates_count 1",
		`bead_broadphase_pruned_total{stage="objects"}`,
		"bead_kernel_invocations_total",
		`bead_query_seconds_count{kind="possibly-within"} 1`,
		`bead_query_seconds_count{kind="alibi"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestCapWindowsDecidedMetric reads bead_cap_windows_decided_total: on
// movers that have not turned since they were loaded at t = 0, every
// object is cap-only for a window after it, so an instrumented engine
// answers a possibly-within without a kernel call, and each window the
// cap pass decided is one object of the answer.
func TestCapWindowsDecidedMetric(t *testing.T) {
	db, err := workload.RandomMovers(workload.Config{Seed: 7, N: 40})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := FromDB(db, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	ans, _, err := eng.PossiblyWithin(geom.Of(0, 0), 300, 10, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	value := func(family string) string {
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, family+" "); ok {
				return v
			}
		}
		t.Fatalf("no %s sample in:\n%s", family, buf.String())
		return ""
	}
	n := len(ans.Objects())
	if n == 0 {
		t.Fatal("empty answer: the query decided nothing")
	}
	if got, want := value("bead_cap_windows_decided_total"), fmt.Sprint(n); got != want {
		t.Errorf("bead_cap_windows_decided_total = %s, want %s (one per answered object)", got, want)
	}
	if got := value("bead_kernel_invocations_total"); got != "0" {
		t.Errorf("bead_kernel_invocations_total = %s, want 0: cap-only objects reached the kernel", got)
	}
}

// TestPossiblyWithinValidationIgnoresData: whether a possibly-within
// question is refused, and with which error, is a property of the
// question alone. Before the question was validated up front the checks
// ran once per candidate inside the kernel walk, so an inverted window
// came back as an empty answer from an empty database or one whose
// objects were all far away, and as an error only once an object was
// near the query point.
func TestPossiblyWithinValidationIgnoresData(t *testing.T) {
	build := func(at ...float64) *mod.DB {
		db := mod.NewDB(2, 0)
		for i, x := range at {
			if err := db.Apply(mod.New(mod.OID(i+1), float64(i+1), geom.Of(0, 0), geom.Of(x, 0))); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	dbs := map[string]*mod.DB{"empty": build(), "far": build(1e6), "near": build(1), "mixed": build(1e6, 1, 2)}
	q, nan := geom.Of(0, 0), geom.Of(0, math.NaN())
	for _, tc := range []struct {
		name         string
		q            geom.Vec
		dist, lo, hi float64
		want         string
	}{
		{"inverted window", q, 10, 10, 5, "bead: inverted query window [10, 5]"},
		{"negative distance", q, -1, 0, 5, "bead: bad query distance -1"},
		{"non-finite window", q, 10, 0, math.Inf(1), "bead: non-finite query window [0, +Inf]"},
		{"non-finite point", nan, 10, 0, 5, "bead: non-finite query coordinate NaN"},
		// Several faults at once: point, then distance, then window.
		{"point before distance", nan, -1, 10, 5, "bead: non-finite query coordinate NaN"},
		{"distance before window", q, -1, 10, 5, "bead: bad query distance -1"},
		{"point dimension first", geom.Of(0), -1, 10, 5, "query: point dim 1, database dim 2"},
	} {
		for name, db := range dbs {
			_, err := query.PossiblyWithin(db.EpochSnapshot(), tc.q, tc.dist, tc.lo, tc.hi, 20)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, %s database, scan: error %v, want %q", tc.name, name, err, tc.want)
			}
			for _, p := range []int{1, 4} {
				eng, err := FromDB(db.Snapshot(), Config{Shards: p})
				if err != nil {
					t.Fatal(err)
				}
				ans, _, err := eng.PossiblyWithin(tc.q, tc.dist, tc.lo, tc.hi, 20)
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s, %s database, P=%d: answer %v error %v, want %q", tc.name, name, p, ans, err, tc.want)
				}
			}
		}
	}
	// And a well-formed question still gets its answer.
	eng, err := FromDB(dbs["mixed"].Snapshot(), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := eng.PossiblyWithin(q, 10, 0, 5, 20)
	if err != nil || fmt.Sprint(ans.Objects()) != "[o2 o3]" {
		t.Errorf("valid question: objects %v error %v, want [o2 o3]", ans.Objects(), err)
	}
}
