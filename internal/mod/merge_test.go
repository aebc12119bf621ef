package mod

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/geom"
)

func buildLoggedDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(2, -1)
	if err := db.ApplyAll(
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		New(2, 1, geom.Of(0, 1), geom.Of(5, 5)),
		New(3, 2, geom.Of(-1, 0), geom.Of(9, 9)),
		ChDir(1, 3, geom.Of(0, -1)),
		Terminate(2, 4),
		ChDir(3, 5, geom.Of(1, 1)),
	); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPartitionMergeRoundTrip(t *testing.T) {
	db := buildLoggedDB(t)
	parts, err := db.Partition(3, func(o OID) int { return int(o) % 3 })
	if err != nil {
		t.Fatal(err)
	}
	// Every part inherits the source tau, so any globally chronological
	// continuation routes cleanly.
	for i, p := range parts {
		if p.Tau() != db.Tau() {
			t.Fatalf("part %d tau = %g, want %g", i, p.Tau(), db.Tau())
		}
	}
	if n := parts[0].Len() + parts[1].Len() + parts[2].Len(); n != db.Len() {
		t.Fatalf("parts hold %d objects, want %d", n, db.Len())
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := db.SaveBinary(&want); err != nil {
		t.Fatal(err)
	}
	if err := merged.SaveBinary(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("round trip differs: %d snapshot bytes, want %d", got.Len(), want.Len())
	}
}

func TestMergeTauAndObjects(t *testing.T) {
	a, b := NewDB(1, -1), NewDB(1, -1)
	if err := a.ApplyAll(New(1, 0, geom.Of(1), geom.Of(0)), ChDir(1, 4, geom.Of(2))); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyAll(New(2, 1, geom.Of(1), geom.Of(0)), ChDir(2, 3, geom.Of(2))); err != nil {
		t.Fatal(err)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tau() != 4 {
		t.Fatalf("merged tau = %g, want 4", m.Tau())
	}
	for o, src := range map[OID]*DB{1: a, 2: b} {
		want, _ := src.Traj(o)
		got, err := m.Traj(o)
		if err != nil || !got.Equal(want) {
			t.Fatalf("merged %s = %v, %v; want %v", o, got, err, want)
		}
	}
	// The merged database continues from the later part's tau.
	if err := m.Apply(ChDir(2, 3.5, geom.Of(0))); !errors.Is(err, ErrChronology) {
		t.Fatalf("update before the merged tau: %v, want ErrChronology", err)
	}
	if err := m.Apply(ChDir(2, 5, geom.Of(0))); err != nil {
		t.Fatal(err)
	}
	if tr, _ := b.Traj(2); tr.NumPieces() != 2 {
		t.Fatalf("update of the merged database reached a source: %v", tr)
	}
}

func TestMergeRejectsOverlapAndDimMismatch(t *testing.T) {
	a, b := NewDB(2, -1), NewDB(2, -1)
	if err := a.Apply(New(1, 0, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(New(1, 0, geom.Of(1, 0), geom.Of(0, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, b); !errors.Is(err, ErrExists) {
		t.Fatalf("overlapping merge error = %v, want ErrExists", err)
	}
	c := NewDB(3, -1)
	if _, err := Merge(a, c); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch merge error = %v, want ErrDimMismatch", err)
	}
	if _, err := Merge(); !errors.Is(err, ErrBadOperation) {
		t.Fatalf("empty merge error = %v, want ErrBadOperation", err)
	}
}

func TestPartitionRejectsBadRoute(t *testing.T) {
	db := buildLoggedDB(t)
	if _, err := db.Partition(0, func(OID) int { return 0 }); !errors.Is(err, ErrBadOperation) {
		t.Fatalf("p=0 error = %v, want ErrBadOperation", err)
	}
	if _, err := db.Partition(2, func(OID) int { return 7 }); !errors.Is(err, ErrBadOperation) {
		t.Fatalf("out-of-range route error = %v, want ErrBadOperation", err)
	}
}
