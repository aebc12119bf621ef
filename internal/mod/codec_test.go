package mod

import (
	"bytes"
	"encoding/json"
	"strings"
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
	if err := db.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(&buf)
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
		t.Error("JSON snapshot round-trip is not StateEqual")
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

func TestLoadJSONErrors(t *testing.T) {
	cases := []string{
		`{`,         // malformed
		`{"dim":0}`, // bad dimension
		`{"dim":2,"tau":0,"objects":[{"oid":1,"pieces":[]}]}`,                            // empty trajectory
		`{"dim":2,"tau":0,"objects":[{"oid":1,"pieces":[{"start":0,"a":[1],"b":[1]}]}]}`, // dim mismatch
		`{"dim":1,"tau":0,"bogus":true}`,                                                 // unknown field
	}
	for _, c := range cases {
		if _, err := LoadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("LoadJSON(%q) accepted", c)
		}
	}
}

func TestSaveJSONStableOrder(t *testing.T) {
	db := buildSampleDB(t)
	var a, b bytes.Buffer
	must(t, db.SaveJSON(&a))
	must(t, db.SaveJSON(&b))
	if a.String() != b.String() {
		t.Error("snapshot serialization not deterministic")
	}
	// The snapshot is the state, not the history that produced it.
	if strings.Contains(a.String(), `"log"`) || strings.Contains(a.String(), `"kind"`) {
		t.Errorf("snapshot carries an update log: %s", a.String())
	}
}
