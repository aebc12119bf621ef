package mod

import (
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
