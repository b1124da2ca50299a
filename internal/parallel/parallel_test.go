package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

var workerCounts = []int{1, 2, 3, 4, 8, 16}

func TestForRangeCoversExactly(t *testing.T) {
	for _, workers := range workerCounts {
		for _, n := range []int{0, 1, 5, 313, 1000} {
			p := NewPool(workers)
			seen := make([]int32, n) // disjoint chunks: no two workers share an index
			active := p.ForRangeWorker(n, func(lo, hi, _ int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			p.Close()
			if n == 0 && active != 0 {
				t.Fatalf("workers=%d n=0: %d chunks run", workers, active)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("default pool empty")
	}
	if NewPool(-3).Workers() < 1 {
		t.Fatal("negative pool empty")
	}
	if NewPool(6).Workers() != 6 {
		t.Fatal("explicit size ignored")
	}
}

// sum adds xs with one partial per worker slot, merged after the
// barrier: under -race this checks that the barrier orders every
// worker's slot write before the caller reads it.
func sum(p *Pool, partial []int64, xs []int64) int64 {
	active := p.ForRangeWorker(len(xs), func(lo, hi, w int) {
		var s int64
		for _, x := range xs[lo:hi] {
			s += x
		}
		partial[w] = s
	})
	var total int64
	for _, s := range partial[:active] {
		total += s
	}
	return total
}

func series(n int) (xs []int64, total int64) {
	xs = make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
		total += int64(i)
	}
	return xs, total
}

// TestPoolsAreIndependent runs calls on separate pools from separate
// goroutines; each pool owns its barrier, so this is race-free even
// though a single pool is not concurrency-safe.
func TestPoolsAreIndependent(t *testing.T) {
	xs, want := series(4096)
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			p := NewPool(3)
			defer p.Close()
			partial := make([]int64, p.Workers())
			for i := 0; i < 50; i++ {
				if got := sum(p, partial, xs); got != want {
					errc <- fmt.Errorf("%d != %d", got, want)
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseFallsBackToSerial checks a closed pool still computes
// correctly, as one chunk on the caller's goroutine, and that Close
// is idempotent.
func TestCloseFallsBackToSerial(t *testing.T) {
	xs, want := series(10000)
	p := NewPool(4)
	partial := make([]int64, p.Workers())
	if got := sum(p, partial, xs); got != want {
		t.Fatalf("before close: %d != %d", got, want)
	}
	p.Close()
	p.Close() // idempotent
	if got := sum(p, partial, xs); got != want {
		t.Fatalf("after close: %d != %d", got, want)
	}
	active := p.ForRangeWorker(len(xs), func(lo, hi, w int) {
		if lo != 0 || hi != len(xs) || w != 0 {
			t.Errorf("after close: chunk [%d, %d) on worker %d, want [0, %d) on 0", lo, hi, w, len(xs))
		}
	})
	if active != 1 {
		t.Fatalf("after close: %d chunks run, want 1", active)
	}
}

// TestForRangeWorkerSlots checks worker ids are dense in [0, active)
// with the caller as id 0, and that the active count is honest.
func TestForRangeWorkerSlots(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{1, 2, 7, 313, 1000} {
		var hits [4]int64
		seen := make([]int32, n)
		active := p.ForRangeWorker(n, func(lo, hi, w int) {
			atomic.AddInt64(&hits[w], 1)
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		if active < 1 || active > 4 {
			t.Fatalf("n=%d: active=%d out of range", n, active)
		}
		for w := 0; w < active; w++ {
			if atomic.LoadInt64(&hits[w]) != 1 {
				t.Fatalf("n=%d: worker %d ran %d chunks", n, w, hits[w])
			}
		}
		for w := active; w < 4; w++ {
			if atomic.LoadInt64(&hits[w]) != 0 {
				t.Fatalf("n=%d: inactive worker %d ran", n, w)
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

// TestForRangeAllocationFree pins ForRangeWorker at zero allocations
// per call once the pool's workers are running.
func TestForRangeAllocationFree(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	counts := make([]int64, 256)
	fn := func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			counts[i]++ // chunks are disjoint: no two workers share an index
		}
	}
	p.ForRangeWorker(256, fn)
	if allocs := testing.AllocsPerRun(50, func() { p.ForRangeWorker(256, fn) }); allocs != 0 {
		t.Errorf("ForRangeWorker %v allocs/op, want 0", allocs)
	}
}
