package mod

// FuzzReplayTolerant hardens recovery against arbitrary journal bytes:
// corrupted, truncated, interleaved or adversarial input must never
// panic, the applied/skipped accounting must be internally consistent,
// and the reported GoodBytes offset must always be a clean boundary —
// re-replaying the good prefix reproduces the same accounting with no
// torn tail and no error. That last property is what lets the durable
// store truncate a crashed journal at GoodBytes and append to it.

import (
	"bytes"
	"testing"
)

func FuzzReplayTolerant(f *testing.F) {
	valid := "{\"kind\":\"new\",\"oid\":1,\"tau\":1,\"a\":[1,0],\"b\":[0,0]}\n" +
		"{\"kind\":\"chdir\",\"oid\":1,\"tau\":2,\"a\":[0,1]}\n" +
		"{\"kind\":\"new\",\"oid\":2,\"tau\":3,\"a\":[0,0],\"b\":[5,5]}\n" +
		"{\"kind\":\"terminate\",\"oid\":2,\"tau\":4}\n"
	seeds := [][]byte{
		[]byte(valid),
		[]byte(valid[:len(valid)-9]), // torn tail mid-record
		[]byte(valid + "{\"kind\":\"new\",\"oid\":3,\"tau\":"), // torn tail, fresh record
		[]byte("{\"kind\":\"new\",\"oid\":1,\"tau\":5,\"a\":[1,0],\"b\":[0,0]}\n" +
			"{\"kind\":\"new\",\"oid\":2,\"tau\":3,\"a\":[1,0],\"b\":[0,0]}\n"), // chronology skip
		[]byte("garbage\n" + valid),                         // corruption with data after it
		[]byte("\n\n" + valid + "\n"),                       // blank lines
		[]byte("{\"kind\":\"warp\",\"oid\":1,\"tau\":1}\n"), // unknown kind as sole (tail) record
		{},
		[]byte("{\"kind\":\"new\",\"oid\":1,\"tau\":1e309,\"a\":[1],\"b\":[2]}\n"), // overflow float
		[]byte("{\"kind\":\"new\",\"oid\":1,\"tau\":1,\"a\":[1,0],\"b\":[0,0]}"),   // decodable but unterminated
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := NewDB(2, -1)
		applied := 0
		db.OnUpdate(func(Update) { applied++ })
		st, err := ReplayTolerant(db, bytes.NewReader(data))
		// Applied must agree with the database's own account of itself.
		if applied != st.Applied {
			t.Fatalf("Applied=%d but the db notified %d updates", st.Applied, applied)
		}
		if st.Applied < 0 || st.Skipped < 0 || st.TailBytes < 0 {
			t.Fatalf("negative accounting: %+v", st)
		}
		if st.GoodBytes < 0 || st.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes=%d outside [0,%d]", st.GoodBytes, len(data))
		}
		if st.TornTail && err != nil {
			t.Fatalf("both torn tail and error: %+v, %v", st, err)
		}
		if st.TornTail && st.TailBytes == 0 {
			t.Fatalf("torn tail with no tail bytes: %+v", st)
		}
		// The good prefix is a clean journal: same accounting, no torn
		// tail, no error.
		db2 := NewDB(2, -1)
		st2, err2 := ReplayTolerant(db2, bytes.NewReader(data[:st.GoodBytes]))
		if err2 != nil {
			t.Fatalf("good prefix errored: %v (original: %+v, %v)", err2, st, err)
		}
		if st2.TornTail {
			t.Fatalf("good prefix has a torn tail (original: %+v)", st)
		}
		if st2.Applied != st.Applied || st2.Skipped != st.Skipped {
			t.Fatalf("good prefix accounting %d/%d differs from original %d/%d",
				st2.Applied, st2.Skipped, st.Applied, st.Skipped)
		}
		if !db.StateEqual(db2) {
			t.Fatal("good prefix replays to different state")
		}
	})
}
