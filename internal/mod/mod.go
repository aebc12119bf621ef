// Package mod implements the paper's moving object database (Definition
// 2): a finite set of object identifiers, a trajectory per object, and the
// time tau of the last update, together with the three chronological
// update operations of Definition 3 (new, terminate, chdir).
//
// The store is safe for concurrent readers with one chronological writer.
// Readers obtain immutable trajectory values, so long-running query
// evaluations can proceed against a consistent view while updates stream
// in (each sweep ingests updates explicitly at its own pace).
package mod

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// OID identifies a moving object.
type OID uint64

// MaxOID is the largest OID the database accepts: 48 bits are the
// input contract of the database, and Apply and Load refuse a larger
// OID with ErrBadOperation. Every layer above may rely on it; the plane
// sweep (internal/query), for one, keeps the ids above it for its
// constant curves.
const MaxOID OID = 1<<48 - 1

// String renders an OID in the paper's o1, o2, ... style.
func (o OID) String() string { return fmt.Sprintf("o%d", uint64(o)) }

// ParseOID parses a decimal OID, accepting the bare number or the
// "o17" form String renders. OIDs are 64-bit on the wire — POST
// /update decodes them as full uint64s — so every textual parser
// accepts the full range too and leaves refusing one above MaxOID to
// the database; this shared helper exists because two callers once
// parsed narrower than the database accepted and 400'd on objects that
// existed.
func ParseOID(s string) (OID, error) {
	n, err := strconv.ParseUint(strings.TrimPrefix(s, "o"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("mod: bad oid %q: %w", s, err)
	}
	return OID(n), nil
}

// Errors returned by update application.
var (
	ErrChronology   = errors.New("mod: update time not after last update")
	ErrExists       = errors.New("mod: object already exists")
	ErrNotFound     = errors.New("mod: no such object")
	ErrDimMismatch  = errors.New("mod: dimension mismatch with database")
	ErrNotLive      = errors.New("mod: object not live at update time")
	ErrBadOperation = errors.New("mod: malformed update")
)

// UpdateKind enumerates the paper's three update operations.
type UpdateKind int

const (
	// KindNew creates an object: new(o, tau, A, B).
	KindNew UpdateKind = iota
	// KindTerminate ends an object: terminate(o, tau).
	KindTerminate
	// KindChDir changes direction/speed: chdir(o, tau, A).
	KindChDir
	// KindBound declares (or revises) an object's maximum speed:
	// bound(o, tau, vmax). The value rides in A as a 1-vector so the
	// wire/journal payload layout is unchanged. Speed bounds feed the
	// uncertainty layer (internal/bead): between recorded samples the
	// object could have been anywhere inside the space-time bead the
	// bound allows, and the alibi query reasons over exactly that set.
	KindBound
)

// String implements fmt.Stringer.
func (k UpdateKind) String() string {
	switch k {
	case KindNew:
		return "new"
	case KindTerminate:
		return "terminate"
	case KindChDir:
		return "chdir"
	case KindBound:
		return "bound"
	default:
		return "unknown"
	}
}

// Update is one of the paper's update operations with its time instant.
type Update struct {
	Kind UpdateKind
	O    OID
	Tau  float64
	A    geom.Vec // velocity (new, chdir)
	B    geom.Vec // initial position (new)
}

// New builds a create-object update.
func New(o OID, tau float64, a, b geom.Vec) Update {
	return Update{Kind: KindNew, O: o, Tau: tau, A: a, B: b}
}

// Terminate builds a terminate update.
func Terminate(o OID, tau float64) Update {
	return Update{Kind: KindTerminate, O: o, Tau: tau}
}

// ChDir builds a change-direction update.
func ChDir(o OID, tau float64, a geom.Vec) Update {
	return Update{Kind: KindChDir, O: o, Tau: tau, A: a}
}

// Bound builds a speed-bound update: from tau on (and retroactively —
// the bound describes the object's physical capability, not a state
// change), o is declared to never move faster than vmax.
func Bound(o OID, tau, vmax float64) Update {
	return Update{Kind: KindBound, O: o, Tau: tau, A: geom.Vec{vmax}}
}

// String renders the update in the paper's notation.
func (u Update) String() string {
	switch u.Kind {
	case KindNew:
		return fmt.Sprintf("new(%s, %g, %s, %s)", u.O, u.Tau, u.A, u.B)
	case KindTerminate:
		return fmt.Sprintf("terminate(%s, %g)", u.O, u.Tau)
	case KindChDir:
		return fmt.Sprintf("chdir(%s, %g, %s)", u.O, u.Tau, u.A)
	case KindBound:
		if len(u.A) == 1 {
			return fmt.Sprintf("bound(%s, %g, %g)", u.O, u.Tau, u.A[0])
		}
		return fmt.Sprintf("bound(%s, %g, ?)", u.O, u.Tau)
	default:
		return "update(?)"
	}
}

// Listener observes successfully applied updates (e.g. a continuing-query
// evaluator). Listeners are invoked synchronously under the writer path,
// in registration order.
type Listener func(Update)

// DB is a moving object database (O, T, tau).
type DB struct {
	mu   sync.RWMutex
	dim  int
	objs map[OID]trajectory.Trajectory
	// bounds holds declared per-object max speeds (KindBound). An
	// object without an entry has no declared bound; the uncertainty
	// layer then needs a caller-supplied default to reason about it.
	bounds map[OID]float64
	// changes is the change log: the OID of every applied update and
	// Load with the epoch it produced, in epoch order. It is appended
	// under mu, and compacted to the latest entry per object into a new
	// array once it outgrows compactFactor times the object count, so a
	// published Snap's prefix of it never changes. Snap.Diff reads it.
	changes   []change
	tau       float64
	listeners []Listener
	// notifyMu serializes the whole apply-then-notify section so
	// listeners observe updates in application (chronological) order
	// even when Apply is called concurrently. Without it, two writers
	// could apply u1 then u2 under mu but run the listeners in the
	// opposite order — a journal written that way replays u2 first and
	// the chronology check silently drops u1 on recovery.
	notifyMu sync.Mutex

	// epoch counts state mutations; it is bumped under mu after each
	// one. snap caches the epoch snapshot readers share (see
	// EpochSnapshot in snap.go); snapMu serializes its rebuilds.
	epoch  atomic.Uint64
	snap   atomic.Pointer[Snap]
	snapMu sync.Mutex
}

// NewDB creates an empty MOD for objects in R^dim with last-update time
// tau0 (use a time earlier than the first planned update).
func NewDB(dim int, tau0 float64) *DB {
	if dim <= 0 {
		panic("mod: dimension must be positive")
	}
	return &DB{
		dim:    dim,
		objs:   make(map[OID]trajectory.Trajectory),
		bounds: make(map[OID]float64),
		tau:    tau0,
	}
}

// Dim returns the spatial dimension of the database.
func (db *DB) Dim() int { return db.dim }

// Tau returns the time of the last update.
func (db *DB) Tau() float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tau
}

// Len returns the number of objects (live or terminated-but-retained).
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.objs)
}

// Objects returns all OIDs in ascending order.
func (db *DB) Objects() []OID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]OID, 0, len(db.objs))
	for o := range db.objs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Traj returns the trajectory of object o.
func (db *DB) Traj(o OID) (trajectory.Trajectory, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tr, ok := db.objs[o]
	if !ok {
		return trajectory.Trajectory{}, fmt.Errorf("%w: %s", ErrNotFound, o)
	}
	return tr, nil
}

// Contains reports whether o exists in the database.
func (db *DB) Contains(o OID) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.objs[o]
	return ok
}

// PositionAt returns the location of o at time t.
func (db *DB) PositionAt(o OID, t float64) (geom.Vec, error) {
	tr, err := db.Traj(o)
	if err != nil {
		return nil, err
	}
	return tr.At(t)
}

// OnUpdate registers a listener invoked after each successful update.
func (db *DB) OnUpdate(l Listener) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.listeners = append(db.listeners, l)
}

// Apply validates and applies one update, enforcing the paper's
// chronological discipline (tau0 < tau) and the per-operation
// preconditions of Definition 3. Listeners run synchronously before
// Apply returns, in application order: the state mutation happens under
// the write lock, but notifyMu extends the serial section over the
// listener calls so a concurrent writer cannot publish a later update
// to the listeners first. Listeners must not call back into db's update
// path (they would deadlock on notifyMu); readers are unaffected.
func (db *DB) Apply(u Update) error {
	db.notifyMu.Lock()
	defer db.notifyMu.Unlock()
	db.mu.Lock()
	if err := db.applyLocked(u); err != nil {
		db.mu.Unlock()
		return err
	}
	ls := db.listeners
	db.mu.Unlock()
	for _, l := range ls {
		l(u)
	}
	return nil
}

func (db *DB) applyLocked(u Update) error {
	if u.O > MaxOID {
		return fmt.Errorf("%w: %s exceeds %s", ErrBadOperation, u.O, MaxOID)
	}
	if math.IsNaN(u.Tau) || math.IsInf(u.Tau, 0) {
		return fmt.Errorf("%w: non-finite time %g", ErrBadOperation, u.Tau)
	}
	if !(u.Tau > db.tau) {
		return fmt.Errorf("%w: tau=%g, last=%g", ErrChronology, u.Tau, db.tau)
	}
	// The fields the update's kind uses must be finite: a trajectory
	// coefficient of NaN or ±Inf poisons every distance computation
	// downstream. JSON bodies cannot even express these, but the binary
	// wire path can, so the gate lives here where every path converges.
	switch u.Kind {
	case KindNew:
		if err := vecFinite(u.A); err != nil {
			return fmt.Errorf("%w: new(%s) velocity: %v", ErrBadOperation, u.O, err)
		}
		if err := vecFinite(u.B); err != nil {
			return fmt.Errorf("%w: new(%s) position: %v", ErrBadOperation, u.O, err)
		}
	case KindChDir:
		if err := vecFinite(u.A); err != nil {
			return fmt.Errorf("%w: chdir(%s) velocity: %v", ErrBadOperation, u.O, err)
		}
	case KindBound:
		if err := vecFinite(u.A); err != nil {
			return fmt.Errorf("%w: bound(%s) vmax: %v", ErrBadOperation, u.O, err)
		}
	}
	switch u.Kind {
	case KindNew:
		if _, ok := db.objs[u.O]; ok {
			return fmt.Errorf("%w: %s", ErrExists, u.O)
		}
		if u.A.Dim() != db.dim || u.B.Dim() != db.dim {
			return fmt.Errorf("%w: new(%s) has dim %d/%d, db dim %d",
				ErrDimMismatch, u.O, u.A.Dim(), u.B.Dim(), db.dim)
		}
		db.objs[u.O] = trajectory.Linear(u.Tau, u.A, u.B)
	case KindTerminate:
		tr, ok := db.objs[u.O]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, u.O)
		}
		if tr.IsTerminated() {
			return fmt.Errorf("%w: %s already terminated at %g", ErrNotLive, u.O, tr.End())
		}
		nt, err := tr.Terminate(u.Tau)
		if err != nil {
			return err
		}
		db.objs[u.O] = nt
	case KindChDir:
		tr, ok := db.objs[u.O]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, u.O)
		}
		if !tr.DefinedAt(u.Tau) {
			return fmt.Errorf("%w: chdir(%s) at %g outside [%g,%g]",
				ErrNotLive, u.O, u.Tau, tr.Start(), tr.End())
		}
		if u.A.Dim() != db.dim {
			return fmt.Errorf("%w: chdir(%s) dim %d, db dim %d", ErrDimMismatch, u.O, u.A.Dim(), db.dim)
		}
		nt, err := tr.ChDir(u.Tau, u.A)
		if err != nil {
			return err
		}
		db.objs[u.O] = nt
	case KindBound:
		if _, ok := db.objs[u.O]; !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, u.O)
		}
		if len(u.A) != 1 {
			return fmt.Errorf("%w: bound(%s) wants a single [vmax], got %d values",
				ErrBadOperation, u.O, len(u.A))
		}
		if u.B.Dim() != 0 {
			return fmt.Errorf("%w: bound(%s) carries a position", ErrBadOperation, u.O)
		}
		if u.A[0] < 0 {
			return fmt.Errorf("%w: bound(%s) vmax %g < 0", ErrBadOperation, u.O, u.A[0])
		}
		if db.bounds == nil {
			db.bounds = make(map[OID]float64)
		}
		db.bounds[u.O] = u.A[0]
	default:
		return fmt.Errorf("%w: kind %d", ErrBadOperation, u.Kind)
	}
	db.tau = u.Tau
	db.logChange(u.O)
	return nil
}

// vecFinite rejects vectors with NaN or infinite components.
func vecFinite(v geom.Vec) error {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("non-finite component %g", x)
		}
	}
	return nil
}

// SpeedBound returns o's declared maximum speed, if any.
func (db *DB) SpeedBound(o OID) (float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, ok := db.bounds[o]
	return v, ok
}

// Load inserts a pre-existing trajectory directly, bypassing the
// chronological update discipline — the bulk-loading path for historical
// data (past-query workloads, imports). Definition 2 requires every turn
// to lie at or before the database time, so tau advances to cover the
// loaded trajectory's recorded events.
func (db *DB) Load(o OID, tr trajectory.Trajectory) error {
	if o > MaxOID {
		return fmt.Errorf("%w: %s exceeds %s", ErrBadOperation, o, MaxOID)
	}
	if !tr.IsDefined() {
		return fmt.Errorf("%w: undefined trajectory for %s", ErrBadOperation, o)
	}
	if tr.Dim() != db.dim {
		return fmt.Errorf("%w: %s has dim %d, db dim %d", ErrDimMismatch, o, tr.Dim(), db.dim)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.objs[o]; ok {
		return fmt.Errorf("%w: %s", ErrExists, o)
	}
	db.objs[o] = tr
	t := tr.Start()
	for _, turn := range tr.Breaks() {
		if turn > t {
			t = turn
		}
	}
	if tr.IsTerminated() && tr.End() > t {
		t = tr.End()
	}
	if t > db.tau {
		db.tau = t
	}
	db.logChange(o)
	return nil
}

// ApplyAll applies updates in order, stopping at the first error.
func (db *DB) ApplyAll(us ...Update) error {
	for i, u := range us {
		if err := db.Apply(u); err != nil {
			return fmt.Errorf("mod: update %d (%s): %w", i, u, err)
		}
	}
	return nil
}

// ApplyBatch applies updates in order under one lock/listener session:
// the write lock is taken once for the whole batch and listeners are
// notified once per applied update after it is released, so per-update
// lock traffic is paid once per batch and journal listeners see the
// batch as one contiguous run. Application stops at the first rejected
// update; the count of applied updates is returned along with the
// error, and every applied prefix update is delivered to listeners (an
// error does not roll anything back — exactly as repeated Apply calls
// behave). Readers block for the duration of the batch apply, which is
// the batch-ingest trade: size batches for milliseconds, not seconds.
func (db *DB) ApplyBatch(us []Update) (int, error) {
	db.notifyMu.Lock()
	defer db.notifyMu.Unlock()
	db.mu.Lock()
	n := 0
	var err error
	for i, u := range us {
		if aerr := db.applyLocked(u); aerr != nil {
			err = fmt.Errorf("mod: update %d (%s): %w", i, u, aerr)
			break
		}
		n = i + 1
	}
	ls := db.listeners
	db.mu.Unlock()
	for _, u := range us[:n] {
		for _, l := range ls {
			l(u)
		}
	}
	return n, err
}

// Snapshot returns an independent, mutable copy of the database state:
// the current epoch snapshot thawed into a fresh DB. The maps are copied
// outside db.mu (the snapshot is immutable), and because trajectories
// are immutable values the copy shares no mutable state with the
// original. Readers that do not need to mutate use EpochSnapshot.
func (db *DB) Snapshot() *DB {
	s := db.EpochSnapshot()
	return &DB{dim: s.dim, tau: s.tau, objs: maps.Clone(s.objs), bounds: maps.Clone(s.bounds)}
}

// StateEqual reports whether two databases hold identical state: same
// dimension, same last-update time and the same trajectory (piece for
// piece, bit-exact) for the same object set and the same declared speed
// bounds. Two databases reaching one state along different paths
// (direct updates vs snapshot-load plus journal replay) are equal. The
// bit-exact float comparison is intentional: recovery is required to
// reproduce state exactly, and the binary snapshot stores raw float bits.
func (db *DB) StateEqual(other *DB) bool {
	if db == other {
		return true
	}
	a, b := db.EpochSnapshot(), other.EpochSnapshot()
	if a.dim != b.dim || len(a.objs) != len(b.objs) {
		return false
	}
	if a.tau != b.tau { //modlint:allow floatcmp -- recovery must restore tau bit-exactly
		return false
	}
	if len(a.bounds) != len(b.bounds) {
		return false
	}
	for o, va := range a.bounds {
		vb, ok := b.bounds[o]
		if !ok {
			return false
		}
		if va != vb { //modlint:allow floatcmp -- recovery must restore speed bounds bit-exactly
			return false
		}
	}
	for o, ta := range a.objs {
		tb, ok := b.objs[o]
		if !ok {
			return false
		}
		pa, pb := ta.Pieces(), tb.Pieces()
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i].Start != pb[i].Start || pa[i].End != pb[i].End { //modlint:allow floatcmp -- recovery must restore pieces bit-exactly
				return false
			}
			if !pa[i].A.Equal(pb[i].A) || !pa[i].B.Equal(pb[i].B) {
				return false
			}
		}
	}
	return true
}

// Trajectories returns a copy of the full object->trajectory mapping.
func (db *DB) Trajectories() map[OID]trajectory.Trajectory {
	return maps.Clone(db.EpochSnapshot().objs)
}
