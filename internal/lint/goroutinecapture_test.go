package lint

import "testing"

func TestGoroutineCapture(t *testing.T) {
	checkFixture(t, GoroutineCapture, `package fixture

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

type plain struct{ n int }

func argPassOK(xs []int, ch chan int) {
	for _, x := range xs {
		go func(x int) {
			ch <- x
		}(x)
	}
}

func guardedRead(g *guarded, ch chan int) {
	go func() {
		ch <- g.n // want "reads guarded field g.n"
	}()
}

func guardedLockedOK(g *guarded, ch chan int) {
	go func() {
		g.mu.Lock()
		ch <- g.n
		g.mu.Unlock()
	}()
}

func plainOK(p *plain, ch chan int) {
	go func() {
		ch <- p.n
	}()
}

func namedFuncOK(g *guarded) {
	go g.bump()
}

func (g *guarded) bump() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func annotatedOK(g *guarded, ch chan int) {
	go func() {
		ch <- g.n //modlint:allow goroutinecapture -- fixture: g is exclusively owned here
	}()
}
`)
}

// TestGoroutineCaptureEmbeddedLock covers structs embedding sync.Mutex
// and locking through the embedded method set.
func TestGoroutineCaptureEmbeddedLock(t *testing.T) {
	checkFixture(t, GoroutineCapture, `package fixture

import "sync"

type reg struct {
	sync.Mutex
	m map[int]int
}

func readNoLock(r *reg, ch chan int) {
	go func() {
		ch <- r.m[0] // want "reads guarded field r.m"
	}()
}

func readLockedOK(r *reg, ch chan int) {
	go func() {
		r.Lock()
		ch <- r.m[0]
		r.Unlock()
	}()
}
`)
}
