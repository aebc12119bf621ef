package query

// BeadIndex is the uncertainty layer's broad phase: a cache of bead
// tracks plus a space-time R-tree over their chain-bead bounding boxes,
// so PossiblyWithin collects candidates by box intersection instead of
// running the kernel against every chain, and Alibi reuses cached
// tracks instead of rebuilding them per query.
//
// Consistency model: the index is synchronized lazily against the
// *mod.Snap a query runs on, and remembers the snapshot it is synced
// to. The fast path compares the two; on mismatch the query's snapshot
// names the objects that changed since the synced one (mod.Snap.Diff,
// read off the database's change log, in either direction), and only
// their entries are brought up to date, so a sync costs O(changes ·
// log N) whatever the shard holds. Entries whose track was built from
// the query's defaultVmax additionally remember the default they used,
// so changing the default rebuilds them and nothing else. An entry
// whose object only gained samples since (chdir, terminate) is not
// rebuilt: its track is extended (bead.Track.Extend) and only the new
// chain boxes enter the tree, so a sync costs what the updates added,
// whatever the object's history. A snapshot with no common log with the
// synced one (another database, a mod.Union) rebuilds the index whole.
// All work happens on the query path, against an immutable snapshot, so
// cached answers are exactly what the scan path would compute on the
// same snap.
//
// Candidate collection is conservative by construction: every chain
// bead's box is inflated by bead.Pad on the track side, the query ball
// adds bead.Pad on its side, and the two pads together dominate the
// kernel's boundary tolerance (see bead.SegBox). Live caps are
// unbounded in space-time and would poison R-tree arithmetic, so they
// live in a side list, ascending by OID, tested in closed form
// (bead.Cap.Within, whose first test is the cap's reach). A missed
// candidate is therefore a proof the kernel would have returned no
// intervals.
// The cap pass also answers most cap-only objects — those whose last
// sample comes before the window, so the cap is the one bead the
// kernel walk would meet — outright: Cap.Within returns the interval
// that walk would find, bit for bit, or the walk's pruning verdict, and
// sends what it cannot vouch for to the walk like any chain candidate.
// It walks the caps in OID order and passes the box tree's candidates
// on as it goes, so a query's candidates are one OID-sorted list. The
// index answers are bit-identical to the scan's.

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/bead"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/rtree"
	"repro/internal/trajectory"
)

// beadEntry is one object's cached track and its registrations in the
// broad-phase structures.
type beadEntry struct {
	declared bool   // speed bound came from the object, not the default
	vmaxBits uint64 // bits of the vmax the track was built with
	track    *bead.Track
	err      error // track construction failed; surfaced on query
	boxIDs   []uint64
}

// capRef ties a live cap in the side list back to its owner.
type capRef struct {
	o mod.OID
	c bead.Cap
}

// beadCand is one object a possibly-within query answers: the kernel
// walks its track, or, when track is nil, iv is the answer the cap pass
// decided for the cap-only object, as the one-interval list the kernel
// walk would have produced.
type beadCand struct {
	o     mod.OID
	track *bead.Track
	iv    [1]bead.Interval
}

// beadCandList is a query's pooled candidate list: the list holds
// tracks only while its query runs, so a query allocates none of it.
type beadCandList struct{ l []beadCand }

var beadCandPool = sync.Pool{New: func() any { return new(beadCandList) }}

// maxPooledBeadCands is the longest list the pool keeps: one huge
// query must not pin its list for every later one.
const maxPooledBeadCands = 1 << 15

// BeadStats describes the work one broad-phase query did, for metrics.
// Windows = Pruned + Kernel + Closed.
type BeadStats struct {
	Population int // objects in the snapshot
	Candidates int // objects the broad phase could not rule out
	Windows    int // bead windows examined across all candidates
	Pruned     int // windows rejected by the cheap bounding-ball test
	Kernel     int // windows that reached the closed-form kernel
	Closed     int // cap windows the cap pass decided without the kernel
}

// BeadIndex caches bead tracks and indexes their chain boxes for one
// database (one shard). Safe for concurrent use: queries that find the
// index in step with their snapshot collect candidates under the read
// lock, side by side; a sync takes the write lock; kernel evaluation
// runs outside both on immutable tracks. Updates never touch the index:
// the database logs every mutation under its write lock, so an index
// synced to a snapshot stays exactly that snapshot, and the next
// snapshot names what changed since.
type BeadIndex struct {
	mu  sync.RWMutex
	dim int

	synced     *mod.Snap // the snapshot the index reflects; nil before the first sync
	defBits    uint64    // bits of the defaultVmax entries were built with
	undeclared int       // entries whose track depends on the default
	errs       int       // entries whose track construction failed
	resynced   int       // entries the syncs since the last bulk build examined

	entries map[mod.OID]*beadEntry
	tree    *rtree.RectTree // dim spatial axes + one time axis
	owner   map[uint64]mod.OID
	nextBox uint64
	dead    int      // tombstoned boxes still physically in the tree
	caps    []capRef // ascending by OID
}

// NewBeadIndex returns an empty index for db's snapshots. It is built
// on the first query and brought up to date incrementally on each later
// one, against that query's snapshot.
func NewBeadIndex(db *mod.DB) *BeadIndex {
	ix := &BeadIndex{
		dim:     db.Dim(),
		entries: make(map[mod.OID]*beadEntry),
		tree:    rtree.NewRectTree(db.Dim()+1, rtree.DefaultFanout),
		owner:   make(map[uint64]mod.OID),
	}
	return ix
}

// maxAbsVec returns the largest coordinate magnitude of v.
func maxAbsVec(v geom.Vec) float64 {
	m := 0.0
	for _, c := range v {
		if a := math.Abs(c); a > m {
			m = a
		}
	}
	return m
}

// boxRect lifts a spatial SegBox into the tree's space-time geometry:
// axes 0..dim-1 are space, axis dim is time.
func (ix *BeadIndex) boxRect(b bead.SegBox) rtree.Rect {
	lo := make(geom.Vec, ix.dim+1)
	hi := make(geom.Vec, ix.dim+1)
	copy(lo, b.Min)
	copy(hi, b.Max)
	lo[ix.dim] = b.T0
	hi[ix.dim] = b.T1
	return rtree.Rect{Min: lo, Max: hi}
}

// inStep reports whether the index already reflects snap under
// defaultVmax. Called with mu held, in either mode.
func (ix *BeadIndex) inStep(snap *mod.Snap, defaultVmax float64) bool {
	return ix.synced == snap &&
		(ix.undeclared == 0 || ix.defBits == math.Float64bits(defaultVmax))
}

// view runs read, which may only read the index, with the index in step
// with snap: under the read lock when it already is, else under the
// write lock right after syncing it (a reader that let go of the write
// lock first could find the index moved on to another query's
// snapshot).
func (ix *BeadIndex) view(snap *mod.Snap, defaultVmax float64, read func()) {
	ix.mu.RLock()
	if ix.inStep(snap, defaultVmax) {
		read()
		ix.mu.RUnlock()
		return
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	ix.sync(snap, defaultVmax)
	read()
	ix.mu.Unlock()
}

// sync brings the index up to date with snap. Called with the write
// lock held.
func (ix *BeadIndex) sync(snap *mod.Snap, defaultVmax float64) {
	if ix.inStep(snap, defaultVmax) {
		return
	}
	defBits := math.Float64bits(defaultVmax)
	var changed []mod.OID
	ok := false
	if ix.synced != nil {
		changed, ok = snap.Diff(ix.synced)
	}
	if !ok {
		ix.bulkBuild(snap, defaultVmax)
	} else {
		if ix.undeclared > 0 && ix.defBits != defBits {
			for o, e := range ix.entries {
				if !e.declared {
					changed = append(changed, o)
				}
			}
			slices.Sort(changed)
			changed = slices.Compact(changed)
		}
		for _, o := range changed {
			ix.resync(snap, o, defaultVmax)
		}
		ix.maybeRebuild()
	}
	ix.synced = snap
	ix.defBits = defBits
}

// bulkBuild constructs every entry from scratch and STR-packs the box
// tree in one pass — the first-sync path, far cheaper than n
// incremental inserts.
func (ix *BeadIndex) bulkBuild(snap *mod.Snap, defaultVmax float64) {
	clear(ix.entries)
	clear(ix.owner)
	ix.caps = ix.caps[:0]
	ix.undeclared, ix.errs, ix.resynced = 0, 0, 0
	var items []rtree.RectItem
	for _, o := range snap.Objects() { // ascending: every cap is appended
		items = ix.addEntry(snap, o, defaultVmax, items)
	}
	t, err := rtree.BulkRects(items, ix.dim+1, rtree.DefaultFanout)
	if err != nil {
		// Geometry is produced by this file with the right dimension; a
		// failure means corruption, and degrading to a partial index
		// would silently drop answers.
		panic("query: bead index bulk build: " + err.Error())
	}
	ix.tree = t
	ix.dead = 0
}

// resync brings o's entry up to snap: o changed since the synced
// snapshot, or its track depends on a default speed bound that differs
// from this query's. The entry is extended when it can be, else retired
// and rebuilt, or only retired when snap does not hold o.
func (ix *BeadIndex) resync(snap *mod.Snap, o mod.OID, defaultVmax float64) {
	ix.resynced++
	e := ix.entries[o]
	traj, err := snap.Traj(o)
	if e != nil {
		if err == nil && ix.extendEntry(snap, o, e, traj, defaultVmax) {
			return
		}
		ix.retire(o, e)
	}
	if err == nil {
		for _, it := range ix.addEntry(snap, o, defaultVmax, nil) {
			ix.insert(it)
		}
	}
}

// extendEntry brings e up to snap by extending its track with the
// samples traj gained, when the speed bound the track was built with
// still holds and traj continues the track: only the new chain boxes
// are inserted, the cap is swapped for the new one (or dropped, if the
// object terminated) and no tombstone is left behind. It reports false,
// with e untouched, when the entry has to be rebuilt instead.
func (ix *BeadIndex) extendEntry(snap *mod.Snap, o mod.OID, e *beadEntry, traj trajectory.Trajectory, defaultVmax float64) bool {
	vmax, declared := snap.SpeedBound(o)
	if !declared {
		vmax = defaultVmax
	}
	if e.track == nil || declared != e.declared || math.Float64bits(vmax) != e.vmaxBits {
		return false
	}
	tr, ok := e.track.Extend(traj)
	if !ok {
		return false
	}
	e.track = tr
	for _, b := range tr.ChainBoxes(len(e.boxIDs)) {
		ix.insert(ix.ownBox(o, e, b))
	}
	if c, live := tr.Cap(); live {
		i, _ := ix.capAt(o)
		ix.caps[i].c = c
	} else {
		ix.dropCap(o)
	}
	return true
}

// ownBox registers the next chain box of o's entry and returns the tree
// item for it.
func (ix *BeadIndex) ownBox(o mod.OID, e *beadEntry, b bead.SegBox) rtree.RectItem {
	ix.nextBox++
	ix.owner[ix.nextBox] = o
	e.boxIDs = append(e.boxIDs, ix.nextBox)
	return rtree.RectItem{ID: ix.nextBox, R: ix.boxRect(b)}
}

// insert puts one box into the live tree.
func (ix *BeadIndex) insert(it rtree.RectItem) {
	if err := ix.tree.Insert(it); err != nil {
		panic("query: bead index insert: " + err.Error())
	}
}

// addEntry caches o's track and appends its chain boxes to items,
// registering ownership; bulkBuild packs the returned boxes, resync
// inserts them.
func (ix *BeadIndex) addEntry(snap *mod.Snap, o mod.OID, defaultVmax float64, items []rtree.RectItem) []rtree.RectItem {
	e := &beadEntry{}
	vmax, ok := snap.SpeedBound(o)
	e.declared = ok
	if !ok {
		if needsDeclarations(defaultVmax) {
			e.vmaxBits = math.Float64bits(defaultVmax)
			e.err = &NoSpeedBoundError{Objects: []mod.OID{o}}
			ix.errs++
			ix.undeclared++
			ix.entries[o] = e
			return items
		}
		vmax = defaultVmax
		ix.undeclared++
	}
	e.vmaxBits = math.Float64bits(vmax)
	tr, err := snap.Traj(o)
	if err == nil {
		e.track, err = bead.FromTrajectory(tr, vmax)
	}
	if err != nil {
		// Keep the entry so queries surface the same error the scan path
		// would; silently skipping would turn it into a false negative.
		e.err = err
		ix.errs++
		ix.entries[o] = e
		return items
	}
	for _, b := range e.track.ChainBoxes(0) {
		items = append(items, ix.ownBox(o, e, b))
	}
	if c, ok := e.track.Cap(); ok {
		i, _ := ix.capAt(o)
		ix.caps = slices.Insert(ix.caps, i, capRef{o: o, c: c})
	}
	ix.entries[o] = e
	return items
}

// retire drops o's entry: box ownership is severed (the boxes become
// tombstones, compacted by maybeRebuild), the cap is removed, and the
// bookkeeping counters are rolled back. Called with mu held.
func (ix *BeadIndex) retire(o mod.OID, e *beadEntry) {
	for _, id := range e.boxIDs {
		delete(ix.owner, id)
		ix.dead++
	}
	ix.dropCap(o)
	if !e.declared {
		ix.undeclared--
	}
	if e.err != nil {
		ix.errs--
	}
	delete(ix.entries, o)
}

// capAt returns the index of o's cap in the side list, or the index it
// would be inserted at, and whether o has one.
func (ix *BeadIndex) capAt(o mod.OID) (int, bool) {
	return slices.BinarySearchFunc(ix.caps, o, func(cr capRef, o mod.OID) int { return cmp.Compare(cr.o, o) })
}

// dropCap removes o's cap, if it has one, from the side list.
func (ix *BeadIndex) dropCap(o mod.OID) {
	if i, ok := ix.capAt(o); ok {
		ix.caps = slices.Delete(ix.caps, i, i+1)
	}
}

// maybeRebuild compacts tombstoned boxes away with a fresh STR pack
// once they outnumber the live ones. Called with mu held.
func (ix *BeadIndex) maybeRebuild() {
	if ix.dead <= 64 || ix.dead <= len(ix.owner) {
		return
	}
	items := make([]rtree.RectItem, 0, len(ix.owner))
	for _, e := range ix.entries {
		if e.track == nil {
			continue
		}
		for i, b := range e.track.ChainBoxes(0) {
			items = append(items, rtree.RectItem{ID: e.boxIDs[i], R: ix.boxRect(b)})
		}
	}
	t, err := rtree.BulkRects(items, ix.dim+1, rtree.DefaultFanout)
	if err != nil {
		panic("query: bead index rebuild: " + err.Error())
	}
	ix.tree = t
	ix.dead = 0
}

// candidates returns, ascending by OID and deduplicated, every object
// whose bead chain or cap could intersect the ball (q, dist) during
// [lo, hi]: with its track when its answer needs the kernel walk, with
// the answer when the cap pass decided it in closed form. st counts the
// cap pass's objects and windows. The list lives in buf's storage,
// which keeps what the list grew to. Called with mu held in either mode.
func (ix *BeadIndex) candidates(buf *beadCandList, q geom.Vec, dist, lo, hi float64, st *BeadStats) []beadCand {
	qpad := bead.Pad(maxAbsVec(q) + dist)
	pad := dist + qpad
	rlo := make(geom.Vec, ix.dim+1)
	rhi := make(geom.Vec, ix.dim+1)
	for d := 0; d < ix.dim; d++ {
		rlo[d] = q[d] - pad
		rhi[d] = q[d] + pad
	}
	rlo[ix.dim] = lo
	rhi[ix.dim] = hi
	l := buf.l[:0]
	ix.tree.VisitRect(rtree.Rect{Min: rlo, Max: rhi}, func(it rtree.RectItem) bool {
		if o, ok := ix.owner[it.ID]; ok {
			l = append(l, beadCand{o: o})
		}
		return true
	})
	slices.SortFunc(l, func(a, b beadCand) int { return cmp.Compare(a.o, b.o) })
	l = slices.CompactFunc(l, func(a, b beadCand) bool { return a.o == b.o })
	for i := range l {
		l[i].track = ix.entries[l[i].o].track
	}
	// The box tree's candidates are l[:n]; the cap pass appends the
	// merged list after them. A decided object has no box in the window
	// (its last sample comes before lo), so only a kernel verdict can
	// name a box candidate again.
	n, next := len(l), 0
	cq := bead.NewCapQuery(q, dist, lo, hi)
	for i := range ix.caps {
		cr := &ix.caps[i]
		for ; next < n && l[next].o < cr.o; next++ {
			l = append(l, l[next])
		}
		switch iv, v := cr.c.Within(&cq); v {
		case bead.CapKernel:
			if next == n || l[next].o != cr.o {
				l = append(l, beadCand{o: cr.o, track: ix.entries[cr.o].track})
			}
		case bead.CapPruned:
			st.Candidates++
			st.Windows++
			st.Pruned++
		case bead.CapDecided:
			st.Candidates++
			st.Windows++
			st.Closed++
			l = append(l, beadCand{o: cr.o, iv: [1]bead.Interval{iv}})
		}
	}
	l = append(l, l[next:n]...)
	buf.l = l
	return l[n:]
}

// firstErr returns the lowest-OID cached construction error — the same
// error, for the same object, the ascending scan would hit first.
// Called with mu held in either mode.
func (ix *BeadIndex) firstErr(snap *mod.Snap) error {
	for _, o := range snap.Objects() {
		if e := ix.entries[o]; e != nil && e.err != nil {
			return e.err
		}
	}
	return nil
}

// PossiblyWithin answers the possibly-within query through the broad
// phase: identical results to query.PossiblyWithin on the same snap,
// plus work statistics. The question is validated before the index is
// touched (validateWithin); candidates are collected, and cap-only
// objects decided, under the index lock; the kernel then runs lock-free
// over the immutable cached tracks of the rest, in the one OID-sorted
// walk that builds the answer.
func (ix *BeadIndex) PossiblyWithin(snap *mod.Snap, q geom.Vec, dist, lo, hi, defaultVmax float64) (*AnswerSet, BeadStats, error) {
	var st BeadStats
	within, err := validateWithin(snap, q, dist, lo, hi, defaultVmax)
	if err != nil {
		return nil, st, err
	}
	buf := beadCandPool.Get().(*beadCandList)
	defer beadCandPool.Put(buf)
	var cands []beadCand
	ix.view(snap, defaultVmax, func() {
		if ix.errs > 0 {
			err = ix.firstErr(snap)
			return
		}
		cands = ix.candidates(buf, q, dist, lo, hi, &st)
	})
	defer func() {
		clear(buf.l) // drop the tracks: the index may retire them
		if cap(buf.l) > maxPooledBeadCands {
			buf.l = nil
		}
	}()
	if err != nil {
		return nil, st, err
	}
	st.Population = snap.Len()
	ans := newFinishedAnswerSet(len(cands), hi)
	var ivs []bead.Interval // one candidate's at a time
	for i := range cands {
		c := &cands[i]
		if c.track == nil {
			ans.appendSorted(c.o, c.iv[:])
			continue
		}
		var pw bead.PWStats
		ivs, pw = within(c.track, ivs[:0])
		st.Candidates++
		st.Windows += pw.Windows
		st.Pruned += pw.Pruned
		st.Kernel += pw.Kernel
		ans.appendSorted(c.o, ivs)
	}
	return ans, st, nil
}

// TrackOf returns o's cached bead track as of snap, building or
// refreshing the cache as needed — the alibi query's fast path. Objects
// the index has no valid entry for fall back to the uncached TrackOf,
// which produces the scan path's exact error.
func (ix *BeadIndex) TrackOf(snap *mod.Snap, o mod.OID, defaultVmax float64) (*bead.Track, error) {
	// The entry is read under the lock: a later sync extends it in place
	// (extendEntry), so outside the lock its track could already belong
	// to another snapshot. The *Track itself is immutable.
	var (
		found bool
		track *bead.Track
		err   error
	)
	ix.view(snap, defaultVmax, func() {
		if e := ix.entries[o]; e != nil {
			found, track, err = true, e.track, e.err
		}
	})
	if !found {
		return TrackOf(snap, o, defaultVmax)
	}
	if err != nil {
		return nil, err
	}
	return track, nil
}
