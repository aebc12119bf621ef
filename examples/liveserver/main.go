// Live server: runs the HTTP/JSON service in-process, streams a live
// continuing k-NN watch over server-sent events, and feeds updates
// through the REST API — the full network path (internal/server) without
// needing curl.
//
//	go run ./examples/liveserver
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	moq "repro"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)

	// The database and its HTTP facade.
	db := moq.NewDB(2, -1)
	if err := db.Apply(moq.New(1, 0, moq.V(0, 0), moq.V(10, 0))); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWithOptions(shard.Single(db), server.Options{}))
	defer ts.Close()
	fmt.Printf("serving a 2-D MOD at %s\n\n", ts.URL)

	// Open a live 1-NN watch around the depot.
	watchBody, _ := json.Marshal(map[string]interface{}{
		"k": 1, "hi": 100, "point": []float64{0, 0},
	})
	req, _ := http.NewRequest("POST", ts.URL+"/watch/knn", bytes.NewReader(watchBody))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	events := bufio.NewReader(resp.Body)

	readEvent := func() string {
		for {
			line, err := events.ReadString('\n')
			if err != nil {
				return ""
			}
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "data: ") {
				return strings.TrimPrefix(line, "data: ")
			}
		}
	}
	post := func(path string, body map[string]interface{}) {
		data, _ := json.Marshal(body)
		r, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		defer r.Body.Close()
		var out map[string]interface{}
		_ = json.NewDecoder(r.Body).Decode(&out)
		fmt.Printf("POST %-12s -> %v\n", path, out["applied"])
	}

	fmt.Printf("watch opened; initial answer: %s\n\n", readEvent())

	// Stream updates through the API; the watch pushes each change.
	post("/update", map[string]interface{}{
		"kind": "new", "oid": 2, "tau": 5, "a": []float64{0, 0}, "b": []float64{1, 1}})
	fmt.Printf("  watch event: %s\n", readEvent())

	post("/update", map[string]interface{}{
		"kind": "terminate", "oid": 2, "tau": 9})
	fmt.Printf("  watch event: %s\n", readEvent())

	// A past query over what is now recorded history.
	qBody, _ := json.Marshal(map[string]interface{}{
		"k": 1, "lo": 1, "hi": 9, "point": []float64{0, 0}})
	r, err := http.Post(ts.URL+"/query/knn", "application/json", bytes.NewReader(qBody))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	var ans map[string]interface{}
	_ = json.NewDecoder(r.Body).Decode(&ans)
	fmt.Printf("\npast 1-NN over [1,9] (class %v): %v\n", ans["class"], ans["answers"])
}
