package parallel_test

import (
	"fmt"

	"pulphd/internal/parallel"
)

// A sum split over a worker pool the way the OpenMP code splits a
// kernel over the cluster cores: one static chunk per worker, each
// worker's partial in its own slot, merged after the barrier.
func Example() {
	xs := make([]int, 10000)
	for i := range xs {
		xs[i] = i
	}

	pool := parallel.NewPool(4) // four goroutine "cores"
	defer pool.Close()
	partial := make([]int, pool.Workers())
	active := pool.ForRangeWorker(len(xs), func(lo, hi, worker int) {
		s := 0
		for _, x := range xs[lo:hi] {
			s += x
		}
		partial[worker] = s
	})
	total := 0
	for _, s := range partial[:active] {
		total += s
	}

	fmt.Printf("%d chunks, sum %d\n", active, total)
	// Output:
	// 4 chunks, sum 49995000
}
