// Package sub is the materialized-subscription engine for future and
// continuing queries: register a k-NN or within query once and receive
// its initial answer plus a stream of deltas (add/remove/reorder with
// timestamps) as the database evolves under new/terminate/chdir.
//
// This is the serving-layer realization of the paper's Section 5
// maintenance results. Each subscription owns one small plane-sweep
// engine (query.Engine) over a *candidate pool* — the objects whose
// trajectories can reach the query region — rather than the whole
// database, and a registry routes each update only to the subscriptions
// whose support it can change:
//
//   - a spatial interest index (rtree.RectTree over candidate-ball
//     bounding boxes) matches an update's motion segment against
//     subscription regions, so per-update cost is proportional to the
//     number of affected subscriptions, not the subscriber count;
//   - a wake heap keyed by each subscription's next kinetic event time
//     (core.Sweeper.NextEventTime) parks untouched subscriptions: their
//     answers are provably constant between events, so they pay nothing
//     while other objects churn;
//   - which objects a pool holds is the bounded sweep's decision, made
//     where past queries make it: the threshold is query.Threshold's
//     rank ladder over the engine's epoch snapshots, membership is
//     query.Reaches, and query.Guard's sentinel curve at the threshold
//     has the sweep itself schedule the "k-th neighbor left the pool"
//     event, on which the registry rebuilds the pool.
//
// Exactness: pool curves are built from the authoritative trajectories
// (gdist curve coefficients are independent of the clip start), so a
// subscription's current answer is bitwise the answer a fresh
// full-database session reports at the same instant — the property the
// differential harness pins across P=1 and P=4 backends.
//
// Delivery is per-subscriber: bounded queues, coalescing to a resync
// record on overflow, and slow-consumer eviction, so one stalled client
// never stalls the update path or its sibling subscribers.
package sub

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/gdist"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/query"
	"repro/internal/trajectory"
)

// Kind selects the maintained query type.
type Kind int

const (
	// KNN maintains the k nearest neighbors of a fixed point.
	KNN Kind = iota + 1
	// Within maintains the set of objects within Radius of a fixed point.
	Within
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KNN:
		return "knn"
	case Within:
		return "within"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Query describes one continuing query.
type Query struct {
	Kind Kind
	// K is the neighbor count (KNN only).
	K int
	// Radius is the plain (not squared) distance threshold (Within only).
	Radius float64
	// Point is the query center.
	Point geom.Vec
	// Hi is the absolute end of the watch window; 0 means "until
	// MaxHorizon".
	Hi float64
}

// Errors surfaced by the registry.
var (
	// ErrClosed is returned by Subscribe after Close.
	ErrClosed = errors.New("sub: registry closed")
	// ErrHorizon is returned when the requested window ends at or before
	// the database's current time.
	ErrHorizon = errors.New("sub: horizon not after now")
	// ErrSlowConsumer is a stream's terminal error when it was evicted
	// for not draining its delta queue.
	ErrSlowConsumer = errors.New("sub: slow consumer evicted")
	// ErrCanceled is a stream's terminal error after Cancel.
	ErrCanceled = errors.New("sub: subscription canceled")
)

// normalized resolves the unset-horizon sentinel to MaxHorizon and
// defensively copies the point.
func (q Query) normalized() Query {
	if q.Hi == 0 { //modlint:allow floatcmp -- unset-field sentinel: absent horizon decodes to exactly 0
		q.Hi = MaxHorizon
	}
	q.Point = q.Point.Clone()
	return q
}

// validate rejects malformed queries: NaN/Inf point components poison
// every distance comparison in the sweep, so they are refused up front.
func (q Query) validate(dim int) error {
	switch q.Kind {
	case KNN:
		if q.K < 1 {
			return fmt.Errorf("sub: k-NN needs k >= 1, got %d", q.K)
		}
	case Within:
		if math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0) || q.Radius < 0 {
			return fmt.Errorf("sub: within needs a finite radius >= 0, got %g", q.Radius)
		}
	default:
		return fmt.Errorf("sub: unknown query kind %d", int(q.Kind))
	}
	if q.Point.Dim() != dim {
		return fmt.Errorf("sub: point has %d components, database dim %d", q.Point.Dim(), dim)
	}
	for i, x := range q.Point {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("sub: point component %d is %g", i, x)
		}
	}
	if math.IsNaN(q.Hi) || math.IsInf(q.Hi, 0) || q.Hi < 0 {
		return fmt.Errorf("sub: horizon must be a finite time >= 0, got %g", q.Hi)
	}
	if q.Hi > MaxHorizon {
		return fmt.Errorf("sub: horizon %g beyond registry max %g", q.Hi, float64(MaxHorizon))
	}
	return nil
}

// key is the subscription-sharing identity: two Subscribe calls with
// bitwise-identical queries attach to one materialized subscription.
func (q Query) key() string {
	var b strings.Builder
	b.WriteString(q.Kind.String())
	b.WriteByte('/')
	if q.Kind == KNN {
		b.WriteString(strconv.Itoa(q.K))
	} else {
		b.WriteString(strconv.FormatUint(math.Float64bits(q.Radius), 16))
	}
	b.WriteByte('/')
	b.WriteString(strconv.FormatUint(math.Float64bits(q.Hi), 16))
	for _, x := range q.Point {
		b.WriteByte('/')
		b.WriteString(strconv.FormatUint(math.Float64bits(x), 16))
	}
	return b.String()
}

// Delta is one incremental answer change, stamped with the instant it
// took effect. Seq increases by one per delta on the subscription; a
// client that observes a gap (after queue coalescing) receives a Resync
// record carrying the full answer instead of an incremental step.
type Delta struct {
	// T is the time the change took effect (an update or kinetic event
	// instant, or the horizon for Done).
	T float64
	// Seq is the subscription's delta sequence number.
	Seq uint64
	// Add lists objects that entered the answer, ascending.
	Add []mod.OID
	// Remove lists objects that left the answer, ascending.
	Remove []mod.OID
	// Order is the full ranked answer (nearest first) whenever the k-NN
	// ranking changed — including pure reorders with empty Add/Remove.
	// Empty for within subscriptions.
	Order []mod.OID
	// Resync marks a full-state record: Add (and Order for k-NN) carry
	// the complete answer; the client replaces its state.
	Resync bool
	// Done marks the terminal record (horizon reached, or Err set).
	Done bool
	// Err is the terminal error, if the subscription failed or the
	// stream was evicted.
	Err string
}

// Source is the database a registry maintains subscriptions over; it is
// implemented by shard.Engine (and, through embedding, durable.Engine).
// Snapshots returns one MVCC epoch snapshot per shard — the immutable
// views the engine's own queries read, shared, never copied; Traj reads
// one object's live trajectory when an update is routed.
type Source interface {
	Dim() int
	Tau() float64
	Snapshots() []*mod.Snap
	Traj(o mod.OID) (trajectory.Trajectory, error)
	OnUpdate(l mod.Listener)
}

// MaxHorizon is the end of an open-ended subscription's window
// (Query.Hi == 0) and the latest Hi a subscription may ask for.
const MaxHorizon = 1e9

const (
	// queueCap bounds each subscriber's delta queue; an overflowing
	// queue coalesces into one resync record.
	queueCap = 64
	// maxCoalesce is how many consecutive resync-coalesces (with no
	// intervening drain) a subscriber survives before eviction.
	maxCoalesce = 64
)

// reaches reports whether tr's motion during [from, hi] can bring f's
// curve down to the pool threshold r2 — the query layer's pool-membership
// test. A trajectory that misses the window reaches nothing.
func reaches(f gdist.GDistance, tr trajectory.Trajectory, r2, from, hi float64) bool {
	ok, err := query.Reaches(f, tr, r2, from, hi)
	return err == nil && ok
}
