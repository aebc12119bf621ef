package mod

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

func TestNewDB(t *testing.T) {
	db := NewDB(2, 0)
	if db.Dim() != 2 || db.Len() != 0 || db.Tau() != 0 {
		t.Fatalf("fresh db: dim=%d len=%d tau=%g", db.Dim(), db.Len(), db.Tau())
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDB(0) should panic")
		}
	}()
	NewDB(0, 0)
}

func TestApplyNew(t *testing.T) {
	db := NewDB(2, 0)
	if err := db.Apply(New(1, 5, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	if db.Tau() != 5 || db.Len() != 1 || !db.Contains(1) {
		t.Errorf("after new: tau=%g len=%d", db.Tau(), db.Len())
	}
	pos, err := db.PositionAt(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !pos.ApproxEqual(geom.Of(2, 0), 1e-12) {
		t.Errorf("pos = %v", pos)
	}
	// Duplicate OID.
	err = db.Apply(New(1, 6, geom.Of(1, 0), geom.Of(0, 0)))
	if !errors.Is(err, ErrExists) {
		t.Errorf("duplicate new: %v", err)
	}
	// Wrong dimension.
	err = db.Apply(New(2, 7, geom.Of(1), geom.Of(0)))
	if !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: %v", err)
	}
}

func TestChronology(t *testing.T) {
	db := NewDB(1, 10)
	if err := db.Apply(New(1, 5, geom.Of(1), geom.Of(0))); !errors.Is(err, ErrChronology) {
		t.Errorf("past update accepted: %v", err)
	}
	if err := db.Apply(New(1, 10, geom.Of(1), geom.Of(0))); !errors.Is(err, ErrChronology) {
		t.Errorf("same-time update accepted: %v", err)
	}
	if err := db.Apply(New(1, 11, geom.Of(1), geom.Of(0))); err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(Terminate(1, math.NaN())); !errors.Is(err, ErrBadOperation) {
		t.Errorf("NaN time accepted: %v", err)
	}
}

func TestTerminate(t *testing.T) {
	db := NewDB(1, 0)
	must(t, db.Apply(New(1, 1, geom.Of(1), geom.Of(0))))
	must(t, db.Apply(Terminate(1, 5)))
	tr, err := db.Traj(1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsTerminated() || tr.End() != 5 {
		t.Errorf("End = %g", tr.End())
	}
	if err := db.Apply(Terminate(1, 7)); !errors.Is(err, ErrNotLive) {
		t.Errorf("double terminate: %v", err)
	}
	if err := db.Apply(Terminate(9, 8)); !errors.Is(err, ErrNotFound) {
		t.Errorf("terminate missing: %v", err)
	}
}

func TestChDir(t *testing.T) {
	db := NewDB(2, 0)
	must(t, db.Apply(New(1, 0.5, geom.Of(1, 0), geom.Of(0, 0))))
	must(t, db.Apply(ChDir(1, 3, geom.Of(0, 1))))
	pos, _ := db.PositionAt(1, 5)
	// At t=3 the object was at (2.5, 0); then moves with (0,1).
	if !pos.ApproxEqual(geom.Of(2.5, 2), 1e-9) {
		t.Errorf("pos = %v", pos)
	}
	if err := db.Apply(ChDir(2, 6, geom.Of(1, 0))); !errors.Is(err, ErrNotFound) {
		t.Errorf("chdir missing: %v", err)
	}
	must(t, db.Apply(Terminate(1, 7)))
	if err := db.Apply(ChDir(1, 9, geom.Of(1, 0))); !errors.Is(err, ErrNotLive) {
		t.Errorf("chdir after terminate: %v", err)
	}
}

func TestObjectsSorted(t *testing.T) {
	db := NewDB(1, 0)
	for i, o := range []OID{5, 3, 9, 1} {
		must(t, db.Apply(New(o, float64(i+1), geom.Of(1), geom.Of(0))))
	}
	got := db.Objects()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Objects not sorted: %v", got)
		}
	}
}

func TestListenerOrderAndSnapshot(t *testing.T) {
	db := NewDB(1, 0)
	var seen []Update
	db.OnUpdate(func(u Update) { seen = append(seen, u) })
	must(t, db.ApplyAll(
		New(1, 1, geom.Of(1), geom.Of(0)),
		ChDir(1, 2, geom.Of(-1)),
	))
	if len(seen) != 2 || seen[0].Kind != KindNew || seen[1].Kind != KindChDir {
		t.Errorf("listener saw %v", seen)
	}
	snap := db.Snapshot()
	must(t, db.Apply(Terminate(1, 3)))
	if snap.Tau() != 2 || snap.Len() != 1 {
		t.Error("snapshot mutated by later update")
	}
	str, _ := snap.Traj(1)
	if str.IsTerminated() {
		t.Error("snapshot trajectory mutated")
	}
	// The snapshot is a database of its own: updating it leaves the
	// source (and the source's listeners) alone.
	must(t, snap.Apply(New(2, 2.5, geom.Of(1), geom.Of(0))))
	if db.Contains(2) || len(seen) != 3 {
		t.Errorf("update of the snapshot reached the source: contains=%v, listener saw %d", db.Contains(2), len(seen))
	}
}

func TestApplyAllStopsOnError(t *testing.T) {
	db := NewDB(1, 0)
	err := db.ApplyAll(
		New(1, 1, geom.Of(1), geom.Of(0)),
		New(1, 2, geom.Of(1), geom.Of(0)), // duplicate
		New(2, 3, geom.Of(1), geom.Of(0)), // never reached
	)
	if err == nil {
		t.Fatal("expected error")
	}
	if db.Contains(2) {
		t.Error("ApplyAll continued past error")
	}
}

func TestListener(t *testing.T) {
	db := NewDB(1, 0)
	var seen []Update
	db.OnUpdate(func(u Update) { seen = append(seen, u) })
	must(t, db.Apply(New(1, 1, geom.Of(1), geom.Of(0))))
	_ = db.Apply(New(1, 2, geom.Of(1), geom.Of(0))) // fails; no callback
	if len(seen) != 1 || seen[0].O != 1 {
		t.Errorf("listener saw %v", seen)
	}
}

func TestUpdateString(t *testing.T) {
	u := New(3, 1.5, geom.Of(1, 0), geom.Of(2, 2))
	if u.String() != "new(o3, 1.5, (1, 0), (2, 2))" {
		t.Errorf("String = %q", u.String())
	}
	if Terminate(3, 2).String() != "terminate(o3, 2)" {
		t.Errorf("String = %q", Terminate(3, 2).String())
	}
	if ChDir(3, 2, geom.Of(0, 1)).String() != "chdir(o3, 2, (0, 1))" {
		t.Errorf("String = %q", ChDir(3, 2, geom.Of(0, 1)).String())
	}
	for _, k := range []UpdateKind{KindNew, KindTerminate, KindChDir, UpdateKind(9)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	db := NewDB(1, 0)
	must(t, db.Apply(New(1, 1, geom.Of(1), geom.Of(0))))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = db.Objects()
				_, _ = db.Traj(1)
				_ = db.Tau()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		must(t, db.Apply(ChDir(1, float64(i)+2, geom.Of(float64(i%3)))))
	}
	close(stop)
	wg.Wait()
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestLoadHistorical(t *testing.T) {
	db := NewDB(1, -1)
	tr := trajectory.Linear(0, geom.Of(1), geom.Of(0))
	tr2, _ := tr.ChDir(5, geom.Of(-1))
	if err := db.Load(7, tr2); err != nil {
		t.Fatal(err)
	}
	// Same instant load of a second object is fine (bulk load).
	if err := db.Load(8, trajectory.Linear(0, geom.Of(2), geom.Of(1))); err != nil {
		t.Fatal(err)
	}
	if db.Tau() < 5 {
		t.Errorf("tau = %g, want >= 5 (covers recorded turn)", db.Tau())
	}
	if err := db.Load(7, tr); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate load: %v", err)
	}
	if err := db.Load(9, trajectory.Trajectory{}); !errors.Is(err, ErrBadOperation) {
		t.Errorf("undefined load: %v", err)
	}
	if err := db.Load(9, trajectory.Linear(0, geom.Of(1, 2), geom.Of(0, 0))); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch load: %v", err)
	}
	// Chronology continues after the loaded tau.
	if err := db.Apply(ChDir(7, 4, geom.Of(1))); !errors.Is(err, ErrChronology) {
		t.Errorf("pre-tau update after load: %v", err)
	}
	if err := db.Apply(ChDir(8, 6, geom.Of(1))); err != nil {
		t.Errorf("post-tau update after load: %v", err)
	}
}

// TestParseOID pins the full 64-bit OID range: a narrower 48-bit parse
// once rejected identifiers the database itself stores without issue.
func TestParseOID(t *testing.T) {
	big := uint64(1)<<52 + 7 // above 2^48: the old parse clipped here
	cases := []struct {
		in   string
		want OID
	}{
		{"0", 0},
		{"42", 42},
		{"o42", 42}, // String() form round-trips
		{"18446744073709551615", OID(math.MaxUint64)},
		{"281474976710656", OID(1) << 48},
		{"4503599627370503", OID(big)},
		{"o4503599627370503", OID(big)},
	}
	for _, c := range cases {
		got, err := ParseOID(c.in)
		if err != nil {
			t.Errorf("ParseOID(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseOID(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "o", "abc", "-1", "1.5", "oo1", "18446744073709551616"} {
		if got, err := ParseOID(bad); err == nil {
			t.Errorf("ParseOID(%q) = %d, want error", bad, got)
		}
	}
}

// TestParseOIDRoundTrip: every OID's String() form parses back to itself.
func TestParseOIDRoundTrip(t *testing.T) {
	for _, o := range []OID{0, 1, 1 << 20, 1 << 48, 1<<52 + 7, math.MaxUint64} {
		got, err := ParseOID(o.String())
		if err != nil {
			t.Fatalf("ParseOID(%q): %v", o.String(), err)
		}
		if got != o {
			t.Fatalf("round trip %d -> %q -> %d", o, o.String(), got)
		}
	}
}
