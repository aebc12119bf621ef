package mod

// Regression tests for the float-edge persistence bugs: SaveJSON used
// to fail with "json: unsupported value: -Inf" on any database still at
// its -Inf seed tau (every fresh store). And the pin that the update
// log old snapshots carry is read past, never into the database: a
// hand-edited or corrupted log can no longer smuggle anything in,
// because nothing of it is kept.

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSaveJSONNegInfTau(t *testing.T) {
	fresh := NewDB(2, math.Inf(-1))
	var buf bytes.Buffer
	if err := fresh.SaveJSON(&buf); err != nil {
		t.Fatalf("SaveJSON of fresh -Inf db: %v", err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Tau(), -1) || !got.StateEqual(fresh) {
		t.Fatalf("round-trip tau %g, want -Inf", got.Tau())
	}
	// The sentinel is the absent field, same convention as piece End.
	buf.Reset()
	must(t, fresh.SaveJSON(&buf))
	if strings.Contains(buf.String(), `"tau"`) {
		t.Errorf("-Inf tau encoded explicitly: %s", buf.String())
	}
	// A database with real history still writes its tau.
	db := buildSampleDB(t)
	buf.Reset()
	must(t, db.SaveJSON(&buf))
	if !strings.Contains(buf.String(), `"tau": 7`) {
		t.Errorf("finite tau missing from snapshot: %s", buf.String())
	}
}

func TestLoadJSONIgnoresLog(t *testing.T) {
	const prefix = `{"dim":2,"tau":1,"objects":[{"oid":1,"pieces":[{"start":0,"a":[1,0],"b":[0,0]}]}]`
	want, err := LoadJSON(strings.NewReader(prefix + "}"))
	if err != nil {
		t.Fatal(err)
	}
	for name, entry := range map[string]string{
		"well-formed":      `{"kind":"new","oid":1,"tau":0,"a":[1,0],"b":[0,0]}`,
		"new with 1-d a":   `{"kind":"new","oid":1,"tau":0,"a":[1],"b":[0,0]}`,
		"chdir missing a":  `{"kind":"chdir","oid":1,"tau":1}`,
		"overflow tau":     `{"kind":"terminate","oid":1,"tau":1e999}`,
		"unknown kind":     `{"kind":"warp","oid":9,"tau":5}`,
		"not even updates": `1, "two", null`,
	} {
		got, err := LoadJSON(strings.NewReader(prefix + `,"log":[` + entry + "]}"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !got.StateEqual(want) {
			t.Errorf("%s: the log changed the loaded state", name)
		}
	}
	// The log still has to be JSON: a file cut off inside it is rejected.
	if _, err := LoadJSON(strings.NewReader(prefix + `,"log":[{"kind":"new"`)); err == nil {
		t.Error("snapshot truncated inside the log accepted")
	}
}
