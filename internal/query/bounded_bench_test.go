package query

import (
	"math/rand"
	"testing"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
)

var sinkScan *Scan

// BenchmarkScanPast is the first half of one past k-NN on one shard:
// every curve of 1,000 movers (ten legs each over [0, 40]) to a point,
// over a 3-unit window, with its first and least value.
func BenchmarkScanPast(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vec := func(s float64) geom.Vec { return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5)) }
	db := mod.NewDB(2, -1)
	for o := mod.OID(1); o <= 1000; o++ {
		tr := trajectory.Linear(0, vec(20), vec(1000))
		for leg := 1; leg < 10; leg++ {
			var err error
			if tr, err = tr.ChDir(4*float64(leg)+rng.Float64(), vec(20)); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Load(o, tr); err != nil {
			b.Fatal(err)
		}
	}
	snap := db.EpochSnapshot()
	f := gdist.PointSq{Point: geom.Of(10, -20)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := ScanPast(snap, f, 20, 23)
		if err != nil {
			b.Fatal(err)
		}
		sinkScan = sc
	}
}
