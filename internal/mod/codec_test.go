package mod

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/geom"
)

func buildSampleDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(2, -1)
	must(t, db.ApplyAll(
		New(1, 0, geom.Of(1, 0), geom.Of(0, 0)),
		New(2, 1, geom.Of(0, 2), geom.Of(5, 5)),
		ChDir(1, 3, geom.Of(-1, 1)),
		Terminate(2, 7),
	))
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := buildSampleDB(t)
	var buf bytes.Buffer
	if err := db.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != db.Dim() || back.Tau() != db.Tau() || back.Len() != db.Len() {
		t.Fatalf("header mismatch: dim %d/%d tau %g/%g len %d/%d",
			back.Dim(), db.Dim(), back.Tau(), db.Tau(), back.Len(), db.Len())
	}
	for _, o := range db.Objects() {
		a, _ := db.Traj(o)
		b, err := back.Traj(o)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("%s differs after round trip:\n%s\nvs\n%s", o, a, b)
		}
	}
	if !back.StateEqual(db) {
		t.Error("snapshot round-trip is not StateEqual")
	}
	// The restored DB keeps enforcing chronology from the restored tau.
	if err := back.Apply(ChDir(1, 5, geom.Of(0, 0))); err == nil {
		t.Error("pre-tau update accepted after restore")
	}
	if err := back.Apply(ChDir(1, 8, geom.Of(0, 0))); err != nil {
		t.Errorf("post-tau update rejected after restore: %v", err)
	}
}

func TestUpdateJSONRoundTrip(t *testing.T) {
	for _, u := range []Update{
		New(3, 1.5, geom.Of(1, 0), geom.Of(2, 2)),
		Terminate(4, 2.5),
		ChDir(5, 3.5, geom.Of(0, -1)),
	} {
		data, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		var back Update
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Kind != u.Kind || back.O != u.O || back.Tau != u.Tau {
			t.Errorf("round trip %v -> %v", u, back)
		}
		if u.A != nil && !back.A.Equal(u.A) {
			t.Errorf("A mismatch: %v vs %v", back.A, u.A)
		}
	}
	var bad Update
	if err := json.Unmarshal([]byte(`{"kind":"warp","oid":1,"tau":2}`), &bad); err == nil {
		t.Error("unknown kind accepted")
	}
}
