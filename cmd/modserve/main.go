// Command modserve runs the moving-object database as an HTTP/JSON
// service (see internal/server for the endpoint reference): trackers POST
// chronological updates, dashboards POST plane-sweep queries.
//
// Usage:
//
//	modserve [-addr :8723] [-dim 2] [-shards 4]
//	         [-data-dir DIR [-commit flush|group] [-checkpoint-every 30s]]
//	         [-load SNAPSHOT | -seed-demo]
//	         [-slow-query-threshold 50ms] [-watch-heartbeat 15s] [-pprof=true]
//
// The server runs in one of two modes: durable (-data-dir) or in-memory
// (everything else: an empty database, one restored from -load, or the
// -seed-demo movers; nothing is written to disk).
//
// POST /watch/knn and /watch/within serve continuing queries as SSE
// delta streams off the materialized-subscription registry
// (internal/sub): one shared incremental evaluation per distinct query,
// updates routed through a spatial interest index, per-client bounded
// queues with coalescing and slow-consumer eviction. -watch-heartbeat
// sets the idle keep-alive comment interval.
//
// With -shards P > 1 the database is hash-partitioned by OID across P
// independent shards (internal/shard): updates route to their shard and
// the /query endpoints fan out across the shards, one goroutine per
// shard, and merge — same answers, with the shards' scans and sweeps
// running in parallel across cores.
//
// Durability (-data-dir, internal/durable): the server recovers the
// database from DIR at boot (snapshot + journal replay, tolerating the
// torn tail a crash leaves), journals every applied update, and
// checkpoints — atomically rotating the {snapshot, journal} pair —
// every -checkpoint-every interval, on SIGINT/SIGTERM, and once more
// after the listener drains. Changing -shards across restarts
// re-partitions the store (a generation bump) transparently.
//
// The -commit flag picks the update ack contract. Under both, POST
// /update and /update/batch answer only after their journal entries are
// durable, and a failure to make them so answers 500:
//
//	flush  (default) the journal is flushed to the segment file before
//	       the ack: an acked update survives a process crash (kill -9)
//	       but not a power failure
//	group  group commit: concurrent updates are coalesced into shared
//	       fsyncs by a committer goroutine, and the ack waits for the
//	       fsync covering its entries: an acked update survives power
//	       loss
//
// The data directory is written in the binary codec of internal/mod
// (length-prefixed, CRC-framed records, raw IEEE-754 floats). A
// directory an older build wrote as JSON, or whose snapshots carry the
// update log (snapshot versions 1 and 2), is refused at boot and left
// as it was; opening it once with a build at or before commit f2b2e8f
// (JSON) or dfaf821 (versions 1 and 2) and shutting down, which
// checkpoints, converts it. The durability flags (-commit, -checkpoint-every)
// are rejected without -data-dir rather than silently ignored.
//
// -load restores a binary snapshot file (what GET /snapshot and
// modquery's save write) into the in-memory mode and is mutually
// exclusive with -data-dir.
//
// Observability (internal/obs):
//
//	GET /metrics              Prometheus text exposition: per-endpoint
//	                          request counts/status/latency, per-shard
//	                          sweep work (events, swaps, reschedules,
//	                          queue high-water), query latency and k-NN
//	                          candidate-pool histograms; with -data-dir
//	                          also checkpoint/recovery counters and
//	                          per-shard journal sequence numbers
//	GET /metrics?format=json  the same registry as JSON
//	GET /debug/vars           expvar (includes the registry under "mod")
//	GET /debug/pprof/         net/http/pprof profiles (-pprof=false to drop)
//
// -slow-query-threshold D logs a structured "SLOWQUERY {json}" line for
// every query slower than D (0 disables).
//
// Example session:
//
//	curl -s localhost:8723/healthz
//	curl -s -X POST localhost:8723/update \
//	  -d '{"kind":"new","oid":1,"tau":0,"a":[1,0],"b":[0,0]}'
//	curl -s -X POST localhost:8723/query/knn \
//	  -d '{"k":2,"lo":0,"hi":60,"point":[0,0]}'
//	curl -s localhost:8723/metrics | grep mod_checkpoints_total
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

var (
	addrFlag    = flag.String("addr", ":8723", "listen address")
	dimFlag     = flag.Int("dim", 2, "spatial dimension of a fresh database")
	shardsFlag  = flag.Int("shards", 1, "hash-partition objects across P independent shards; queries fan out and merge")
	dataDirFlag = flag.String("data-dir", "", "durable data directory: recover at boot, journal every update, checkpoint on signal/interval")
	ckptFlag    = flag.Duration("checkpoint-every", 0, "checkpoint period with -data-dir (0 = only at shutdown)")
	loadFlag    = flag.String("load", "", "binary snapshot file (as GET /snapshot writes) to restore at startup (exclusive with -data-dir)")
	commitFlag  = flag.String("commit", "flush", "update durability with -data-dir: flush | group (see header)")
	demoFlag    = flag.Bool("seed-demo", false, "seed 50 random movers for demos")
	slowFlag    = flag.Duration("slow-query-threshold", 0, "log a structured SLOWQUERY line for queries at least this slow (0 disables)")
	beatFlag    = flag.Duration("watch-heartbeat", 0, "interval between ': heartbeat' comments on idle /watch SSE streams (0 = 15s default, negative disables)")
	pprofFlag   = flag.Bool("pprof", true, "serve net/http/pprof under /debug/pprof/")
)

func main() {
	logger := log.New(os.Stderr, "modserve: ", log.LstdFlags)
	flag.Parse()

	// Observability: one registry shared by the durability layer
	// (checkpoint/recovery series), the engine (sweep/query series) and
	// the HTTP layer (request series).
	reg := obs.NewRegistry()

	var backend server.Backend
	var deng *durable.Engine
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkDurabilityFlags(*dataDirFlag, set); err != nil {
		logger.Fatal(err)
	}
	if *dataDirFlag != "" {
		if *loadFlag != "" || *demoFlag {
			logger.Fatal("-data-dir is exclusive with -load and -seed-demo")
		}
		policy, err := parseCommitPolicy(*commitFlag)
		if err != nil {
			logger.Fatal(err)
		}
		eng, err := durable.Open(*dataDirFlag, durable.Config{
			Shards:   *shardsFlag,
			Dim:      *dimFlag,
			Registry: reg,
			Commit:   policy,
		})
		if err != nil {
			logger.Fatal(err)
		}
		for i, info := range eng.Recovery() {
			logger.Printf("shard %d recovery: snapshot=%v replayed=%d skipped=%d torn=%v (%s)",
				i, info.SnapshotLoaded, info.Replay.Applied, info.Replay.Skipped,
				info.Replay.TornTail, info.Duration.Round(time.Microsecond))
		}
		logger.Printf("durable engine: dir=%s gen=%d shards=%d objects=%d tau=%g",
			*dataDirFlag, eng.Generation(), eng.NumShards(), eng.Len(), eng.Tau())
		eng.Instrument(reg)
		backend = eng
		deng = eng
	} else {
		eng := openEphemeral(logger)
		eng.Instrument(reg)
		backend = eng
	}

	expvar.Publish("mod", expvar.Func(reg.ExpvarFunc()))
	srv := server.NewWithOptions(backend, server.Options{
		Logger:             logger,
		Metrics:            reg,
		SlowQueryThreshold: *slowFlag,
		WatchHeartbeat:     *beatFlag,
	})

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if *pprofFlag {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	if *slowFlag > 0 {
		logger.Printf("slow-query log enabled at %s", slowFlag.String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Periodic checkpoints: bounded journal length, bounded recovery
	// time. Runs concurrently with updates and queries by design.
	if deng != nil && *ckptFlag > 0 {
		go func() {
			tick := time.NewTicker(*ckptFlag)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if infos, err := deng.Checkpoint(); err != nil {
						logger.Printf("checkpoint: %v", err)
					} else {
						total := 0
						for _, info := range infos {
							total += info.SnapshotBytes
						}
						logger.Printf("checkpoint: seq=%d snapshot=%dB", infos[0].Seq, total)
					}
				}
			}
		}()
		logger.Printf("checkpointing every %s", ckptFlag.String())
	}

	httpSrv := &http.Server{Addr: *addrFlag, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s", *addrFlag)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		logger.Printf("signal received, draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
	}
	if deng != nil {
		// Graceful shutdown: one final checkpoint (so the next boot
		// recovers from a snapshot, not a long replay), then close.
		if _, err := deng.Checkpoint(); err != nil {
			logger.Printf("final checkpoint: %v", err)
		}
		if err := deng.Close(); err != nil {
			logger.Printf("close: %v", err)
		}
		logger.Printf("durable engine closed")
	}
}

// parseCommitPolicy maps the -commit flag to a durable.CommitPolicy.
func parseCommitPolicy(s string) (durable.CommitPolicy, error) {
	switch s {
	case "flush", "":
		return durable.CommitFlush, nil
	case "group":
		return durable.CommitGroup, nil
	}
	return 0, fmt.Errorf("unknown -commit policy %q (want flush or group)", s)
}

// checkDurabilityFlags rejects a durability flag given without
// -data-dir: the server would run in memory, ignore it, and the operator
// would believe acks are flushed or fsynced. set holds the names of the
// flags present on the command line (flag.Visit).
func checkDurabilityFlags(dataDir string, set []string) error {
	if dataDir != "" {
		return nil
	}
	for _, name := range set {
		switch name {
		case "commit", "checkpoint-every":
			return fmt.Errorf("-%s configures durability and needs -data-dir; without it nothing is written to disk", name)
		}
	}
	return nil
}

// openEphemeral builds the in-memory backend: an optional snapshot
// restore or demo seed, nothing persisted.
func openEphemeral(logger *log.Logger) *shard.Engine {
	var db *mod.DB
	switch {
	case *loadFlag != "":
		f, err := os.Open(*loadFlag)
		if err != nil {
			logger.Fatal(err)
		}
		loaded, err := mod.LoadBinary(f)
		_ = f.Close()
		if err != nil {
			logger.Fatal(err)
		}
		db = loaded
		logger.Printf("restored %d objects (dim %d, tau %g) from %s",
			db.Len(), db.Dim(), db.Tau(), *loadFlag)
	case *demoFlag:
		seeded, err := workload.RandomMovers(workload.Config{Seed: 1, N: 50, Dim: *dimFlag})
		if err != nil {
			logger.Fatal(err)
		}
		db = seeded
		logger.Printf("seeded %d demo movers", db.Len())
	default:
		db = mod.NewDB(*dimFlag, 0)
	}
	eng, err := shard.FromDB(db, shard.Config{Shards: *shardsFlag})
	if err != nil {
		logger.Fatal(err)
	}
	if eng.NumShards() > 1 {
		logger.Printf("sharded engine: %d shards, %d objects", eng.NumShards(), eng.Len())
	}
	return eng
}
