package sub_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sub"
)

// routingCounts is what the registry's own instruments say one storm
// cost: the subscriptions its updates reached, the parked subscriptions
// it woke, the deltas it emitted, and the largest fan-out of one update.
type routingCounts struct {
	routed, fanout, wakeups, deltas uint64
	maxFanout                       float64
}

// coldStorm is an update storm with hot subscriptions watching the
// region it stays in, and a ring of cold radius-1 within-subscriptions
// far outside anything it can reach before the horizon. Everything but
// the number of cold subscriptions comes from one seed, and the hot
// subscriptions are made first, so two runs that differ only in cold
// get the same subscription ids for the same hot queries.
func coldStorm(t *testing.T, cold int) routingCounts {
	const (
		hotSubs  = 200
		nObjects = 256
		updates  = 300
		horizon  = 500.0
		coldRing = 5000.0 // speeds stay under 3, so nothing gets past ~1,500
	)
	rng := rand.New(rand.NewSource(13))
	vec := func(s float64) geom.Vec {
		return geom.Of(s*(rng.Float64()-0.5), s*(rng.Float64()-0.5))
	}
	eng, err := shard.New(shard.Config{Shards: 4, Dim: 2, Tau0: -1})
	if err != nil {
		t.Fatal(err)
	}
	tau := 0.0
	for i := 1; i <= nObjects; i++ {
		tau += 1e-3
		if err := eng.Apply(mod.New(mod.OID(i), tau, vec(4), vec(40))); err != nil {
			t.Fatal(err)
		}
	}
	reg := sub.NewRegistry(eng)
	defer reg.Close()
	metrics := obs.NewRegistry()
	reg.Instrument(metrics)

	hot := make([]*sub.Stream, 0, hotSubs)
	for i := 0; i < hotSubs; i++ {
		var q sub.Query
		if i%2 == 0 {
			q = sub.Query{Kind: sub.KNN, K: 1 + rng.Intn(4), Point: vec(40), Hi: horizon}
		} else {
			q = sub.Query{Kind: sub.Within, Radius: 5 + 10*rng.Float64(), Point: vec(40), Hi: horizon}
		}
		st, err := reg.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		hot = append(hot, st)
	}
	for i := 0; i < cold; i++ {
		a := 2 * math.Pi * float64(i) / float64(cold)
		c := geom.Of(coldRing*math.Cos(a), coldRing*math.Sin(a))
		if _, err := reg.Subscribe(sub.Query{Kind: sub.Within, Radius: 1, Point: c, Hi: horizon}); err != nil {
			t.Fatal(err)
		}
	}

	read := func() (uint64, float64, uint64, uint64) {
		m := metrics.JSONValue()
		return m["sub_updates_routed_total"].(uint64), m["sub_fanout_width"].(obs.Summary).Sum,
			m["sub_wakeups_total"].(uint64), m["sub_deltas_total"].(uint64)
	}
	routed0, fanout0, wakeups0, deltas0 := read()
	var c routingCounts
	prev := fanout0
	for i := 0; i < updates; i++ {
		tau += 1e-3
		if err := eng.Apply(mod.ChDir(mod.OID(rng.Intn(nObjects)+1), tau, vec(4))); err != nil {
			t.Fatal(err)
		}
		reg.Sync()
		_, fanout, _, _ := read()
		c.maxFanout = max(c.maxFanout, fanout-prev)
		prev = fanout
		for _, st := range hot {
			for {
				if _, ok := st.Pop(); !ok {
					break
				}
			}
		}
	}
	routed, fanout, wakeups, deltas := read()
	c.routed, c.fanout = routed-routed0, uint64(fanout-fanout0)
	c.wakeups, c.deltas = wakeups-wakeups0, deltas-deltas0
	return c
}

// TestRoutingIgnoresColdSubscriptions holds the interest index to what
// Berkholz/Keppeler/Schweikardt ask of update time: it follows the
// touched neighbourhood. The same storm routed past 100 and past 2,000
// cold subscriptions reaches, wakes and changes exactly the same
// subscriptions, and no update reaches more than the 200 hot ones.
func TestRoutingIgnoresColdSubscriptions(t *testing.T) {
	few, many := coldStorm(t, 100), coldStorm(t, 2000)
	t.Logf("per storm: %d updates routed, fan-out %d (max %v per update), %d wake-ups, %d deltas",
		few.routed, few.fanout, few.maxFanout, few.wakeups, few.deltas)
	if few != many {
		t.Errorf("routing depends on cold subscriptions:\n 100 cold: %+v\n2000 cold: %+v", few, many)
	}
	if few.maxFanout > 200 || many.maxFanout > 200 {
		t.Errorf("an update reached %v subscriptions (100 cold) / %v (2000 cold), more than the 200 hot ones",
			few.maxFanout, many.maxFanout)
	}
	if few.fanout == 0 || few.deltas == 0 || few.wakeups == 0 {
		t.Errorf("the storm reached no hot subscription: %+v", few)
	}
}
