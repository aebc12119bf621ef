package sub

import (
	"sync"

	"repro/internal/mod"
)

// Stream is one subscriber's view of a materialized subscription. The
// registry's pump goroutine pushes deltas; the consumer drains them with
// Ready/Pop. The queue is bounded: on overflow it coalesces into a
// single resync record (full answer, no incremental steps), and a
// consumer that forces too many consecutive coalesces without draining
// is evicted so it can never apply backpressure to the update path.
//
// Consumer loop:
//
//	for {
//		select {
//		case <-st.Ready():
//			for { d, ok := st.Pop(); if !ok { break }; ... }
//		case <-st.Done():
//			for { d, ok := st.Pop(); if !ok { break }; ... } // drain tail
//			return st.Err()
//		}
//	}
type Stream struct {
	reg  *Registry
	sub  *subscription
	kind Kind

	// Immutable after Subscribe returns.
	initT   float64
	initSeq uint64
	initial []mod.OID

	qcap  int
	maxCo int

	mu        sync.Mutex
	queue     []Delta
	notify    chan struct{}
	done      chan struct{}
	closed    bool
	detached  bool
	err       error
	coalesces int
}

func newStream(r *Registry, s *subscription) *Stream {
	return &Stream{
		reg:    r,
		sub:    s,
		kind:   s.q.Kind,
		qcap:   r.qcap,
		maxCo:  r.maxCo,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// Query returns the normalized query this stream watches.
func (st *Stream) Query() Query { return st.sub.q }

// Initial returns the full answer at subscription time and its
// timestamp. For k-NN the slice is in rank order (nearest first), for
// within it is ascending by OID. Deltas on the stream apply on top of
// this state and carry Seq > InitialSeq.
func (st *Stream) Initial() (t float64, answer []mod.OID) { return st.initT, st.initial }

// InitialSeq is the sequence number the initial answer corresponds to.
func (st *Stream) InitialSeq() uint64 { return st.initSeq }

// Ready is signaled whenever new deltas are queued. After each receive
// the consumer must drain with Pop until it returns false.
func (st *Stream) Ready() <-chan struct{} { return st.notify }

// Done is closed when the stream terminates: horizon reached, canceled,
// evicted, or registry closed. Queued deltas remain poppable.
func (st *Stream) Done() <-chan struct{} { return st.done }

// Err returns the terminal error: nil while live and after a normal
// horizon completion; ErrSlowConsumer, ErrCanceled, or ErrClosed
// otherwise.
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Pop removes and returns the next queued delta. ok is false when the
// queue is empty (live stream: wait on Ready; terminated: stop).
func (st *Stream) Pop() (d Delta, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.coalesces = 0
	if len(st.queue) == 0 {
		return Delta{}, false
	}
	d = st.queue[0]
	n := copy(st.queue, st.queue[1:])
	st.queue = st.queue[:n]
	return d, true
}

// Cancel detaches the subscriber. It is synchronous with respect to
// delivery: after Cancel returns, no further delta is queued or
// poppable on this stream. The backing subscription is torn down (on
// the registry's pump) once its last stream detaches.
func (st *Stream) Cancel() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.err = ErrCanceled
	st.queue = nil
	close(st.done)
	st.mu.Unlock()
	st.reg.detachAsync(st)
}

// push queues one delta; cur is the subscription's full answer after
// the delta (borrowed — copied only if coalescing needs it). coalesced
// reports a queue collapse; evict means the stream must be dropped for
// falling too far behind. Called only from the registry pump.
func (st *Stream) push(d Delta, cur []mod.OID) (coalesced, evict bool) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return false, false
	}
	st.queue = append(st.queue, d)
	if len(st.queue) > st.qcap {
		coalesced = true
		st.coalesces++
		if st.coalesces > st.maxCo {
			st.queue = nil
			st.closed = true
			st.err = ErrSlowConsumer
			close(st.done)
			st.mu.Unlock()
			return true, true
		}
		st.coalesceLocked(d, cur)
	}
	if d.Done && !st.closed {
		st.closed = true
		close(st.done)
	}
	select {
	case st.notify <- struct{}{}:
	default:
	}
	st.mu.Unlock()
	return coalesced, false
}

// coalesceLocked collapses the whole queue into a single record. A
// queued terminal delta survives alone (it already renders every
// intermediate step moot); otherwise the queue becomes one resync
// carrying the full current answer at the newest timestamp.
func (st *Stream) coalesceLocked(last Delta, cur []mod.OID) {
	for _, q := range st.queue {
		if q.Done {
			st.queue = append(st.queue[:0], q)
			return
		}
	}
	res := Delta{
		T:      last.T,
		Seq:    last.Seq,
		Resync: true,
		Add:    append([]mod.OID(nil), cur...),
	}
	if st.kind == KNN {
		res.Order = res.Add
	}
	st.queue = append(st.queue[:0], res)
}

// closeWith terminates the stream from the registry side (registry
// Close) without queueing a delta. Idempotent.
func (st *Stream) closeWith(err error) {
	st.mu.Lock()
	if !st.closed {
		st.closed = true
		st.err = err
		close(st.done)
	}
	st.mu.Unlock()
}
