// Package parallel runs a parallel-for over goroutines with the
// decomposition the paper's OpenMP code uses on the PULP cluster
// (Fig. 2): the index range is split into one static chunk per worker
// (schedule(static)), so "the workload is equally distributed among
// the cores" (§3). Goroutines play the cores.
//
// The pool's workers are persistent: NewPool starts them once and
// each call only exchanges a task descriptor per worker, the software
// analogue of the cluster cores spinning on the PULP event unit rather
// than being forked per kernel. A call makes no allocations, and the
// caller's goroutine works chunk 0 itself so a 1-worker pool never
// touches a channel. Callers keep per-worker state (scratch, partial
// results) in slots indexed by the worker id ForRangeWorker passes.
//
// A Pool runs one call at a time: concurrent calls on the same Pool
// share its completion barrier, so one could return on another's
// chunk. Use one Pool per driving goroutine (they are cheap), as one
// PULP cluster serves one offload at a time.
package parallel

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
)

// task is one chunk of a call handed to a persistent worker.
type task struct {
	fn     func(lo, hi, worker int)
	lo, hi int
	worker int
}

// worker is the persistent loop. It deliberately captures only the
// channels, not the Pool, so an abandoned Pool stays finalizable and
// its finalizer can stop the loop. The goroutine labels itself once at
// spawn (pprof labels cost nothing per call), so CPU profiles
// attribute chunks to pool_worker=<id> rather than to an anonymous
// goroutine.
func worker(wake <-chan task, done chan<- struct{}, quit <-chan struct{}, id int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("pool_worker", strconv.Itoa(id))))
	for {
		select {
		case t := <-wake:
			t.fn(t.lo, t.hi, t.worker)
			done <- struct{}{}
		case <-quit:
			return
		}
	}
}

// Pool executes parallel-fors over a fixed set of persistent workers.
type Pool struct {
	workers int
	closed  bool

	wake []chan task   // one per helper; the caller runs chunk 0
	done chan struct{} // completion barrier, buffered workers-1
	quit chan struct{}
}

// NewPool returns a pool of n workers; n ≤ 0 selects GOMAXPROCS.
// The PULP analogy caps usefulness around the cluster sizes (4–8),
// but any positive count works. The n-1 helper goroutines live until
// Close; a finalizer stops them if the pool is dropped unclosed.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: n}
	if n > 1 {
		p.wake = make([]chan task, n-1)
		p.done = make(chan struct{}, n-1)
		p.quit = make(chan struct{})
		for i := range p.wake {
			p.wake[i] = make(chan task, 1)
			go worker(p.wake[i], p.done, p.quit, i+1)
		}
		runtime.SetFinalizer(p, (*Pool).Close)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Close stops the helper goroutines. It is idempotent. Calls made
// after Close run serially on the caller, so a closed pool stays
// usable (and correct) — it just no longer parallelizes.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.quit != nil {
		close(p.quit)
		runtime.SetFinalizer(p, nil)
	}
}

// ForRangeWorker splits [0, n) into one static chunk per worker and
// runs fn(lo, hi, worker) concurrently: it wakes a helper per
// non-first chunk, runs chunk 0 on the caller, and waits for the
// barrier. fn must not touch indices outside its range. Worker ids are
// dense in [0, active), where active is the returned chunk count; id 0
// is the calling goroutine, so callers can keep per-worker state in
// slots instead of behind a mutex.
func (p *Pool) ForRangeWorker(n int, fn func(lo, hi, worker int)) (active int) {
	if n <= 0 {
		return 0
	}
	chunk := (n + p.workers - 1) / p.workers
	active = (n + chunk - 1) / chunk
	if active == 1 || p.closed {
		fn(0, n, 0)
		return 1
	}
	for w := 1; w < active; w++ {
		p.wake[w-1] <- task{fn: fn, lo: w * chunk, hi: min((w+1)*chunk, n), worker: w}
	}
	fn(0, chunk, 0)
	for w := 1; w < active; w++ {
		<-p.done
	}
	return active
}
