package parallel

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"pulphd/internal/hv"
)

var testDims = []int{33, 313, 1000, 10000}
var workerCounts = []int{1, 2, 3, 4, 8, 16}

func TestForRangeCoversExactly(t *testing.T) {
	for _, workers := range workerCounts {
		for _, n := range []int{0, 1, 5, 313, 1000} {
			p := NewPool(workers)
			seen := make([]int32, n) // disjoint chunks: no two workers share an index
			p.ForRange(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
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

func TestXorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range testDims {
		a, b := hv.NewRandom(d, rng), hv.NewRandom(d, rng)
		want := hv.Xor(a, b)
		for _, workers := range workerCounts {
			dst := hv.New(d)
			NewPool(workers).Xor(dst, a, b)
			if !hv.Equal(dst, want) {
				t.Fatalf("d=%d workers=%d: parallel XOR deviates", d, workers)
			}
		}
	}
}

func TestMajorityMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range testDims {
		for _, n := range []int{1, 3, 5, 7} {
			set := make([]hv.Vector, n)
			for i := range set {
				set[i] = hv.NewRandom(d, rng)
			}
			want := hv.New(d)
			hv.MajorityTo(want, set)
			for _, workers := range workerCounts {
				dst := hv.New(d)
				NewPool(workers).Majority(dst, set)
				if !hv.Equal(dst, want) {
					t.Fatalf("d=%d n=%d workers=%d: parallel majority deviates", d, n, workers)
				}
			}
		}
	}
}

func TestHammingMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range testDims {
		a, b := hv.NewRandom(d, rng), hv.NewRandom(d, rng)
		want := hv.Hamming(a, b)
		for _, workers := range workerCounts {
			if got := NewPool(workers).Hamming(a, b); got != want {
				t.Fatalf("d=%d workers=%d: %d != %d", d, workers, got, want)
			}
		}
	}
}

func TestAMSearchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d = 10000
	protos := make([]hv.Vector, 5)
	for i := range protos {
		protos[i] = hv.NewRandom(d, rng)
	}
	query := protos[3].Clone()
	query.FlipBits(700, rng)
	for _, workers := range workerCounts {
		idx, dist := NewPool(workers).AMSearch(query, protos)
		if idx != 3 || dist != 700 {
			t.Fatalf("workers=%d: (%d,%d), want (3,700)", workers, idx, dist)
		}
	}
}

func TestSpatialEncodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, channels := range []int{3, 4, 5} {
		const d = 2048
		im := make([]hv.Vector, channels)
		cim := make([]hv.Vector, channels)
		for i := range im {
			im[i] = hv.NewRandom(d, rng)
			cim[i] = hv.NewRandom(d, rng)
		}
		// Serial reference with the accelerator's tie-break rule.
		var set []hv.Vector
		for i := range im {
			set = append(set, hv.Xor(im[i], cim[i]))
		}
		if channels%2 == 0 {
			set = append(set, hv.Xor(set[0], set[1]))
		}
		want := hv.New(d)
		hv.MajorityTo(want, set)

		bound := make([]hv.Vector, channels+1)
		for i := range bound {
			bound[i] = hv.New(d)
		}
		for _, workers := range workerCounts {
			dst := hv.New(d)
			NewPool(workers).SpatialEncode(dst, bound, im, cim)
			if !hv.Equal(dst, want) {
				t.Fatalf("channels=%d workers=%d: parallel spatial encoding deviates", channels, workers)
			}
		}
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	p := NewPool(2)
	a := hv.New(64)
	b := hv.New(65)
	for name, f := range map[string]func(){
		"xor dims":       func() { p.Xor(a, a, b) },
		"majority dims":  func() { p.Majority(a, []hv.Vector{b}) },
		"empty majority": func() { p.Majority(a, nil) },
		"empty am":       func() { p.AMSearch(a, nil) },
		"scratch":        func() { p.SpatialEncode(a, nil, []hv.Vector{a}, []hv.Vector{a}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestHammingRepeatedNoRace hammers the per-worker partial slots —
// under -race this proves the slot-per-worker merge (which replaced
// the mutex) is properly ordered by the pool barrier.
func TestHammingRepeatedNoRace(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := hv.NewRandom(10000, rng), hv.NewRandom(10000, rng)
	want := hv.Hamming(a, b)
	p := NewPool(8)
	defer p.Close()
	for i := 0; i < 200; i++ {
		if got := p.Hamming(a, b); got != want {
			t.Fatalf("iteration %d: %d != %d", i, got, want)
		}
	}
}

// TestPoolsAreIndependent runs collectives on separate pools from
// separate goroutines; each pool owns its staging fields, so this is
// race-free even though a single pool is not concurrency-safe.
func TestPoolsAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := hv.NewRandom(4096, rng), hv.NewRandom(4096, rng)
	want := hv.Hamming(a, b)
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			p := NewPool(3)
			defer p.Close()
			for i := 0; i < 50; i++ {
				if got := p.Hamming(a, b); got != want {
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
// correctly (on the caller's goroutine) and that Close is idempotent.
func TestCloseFallsBackToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := hv.NewRandom(10000, rng), hv.NewRandom(10000, rng)
	want := hv.Hamming(a, b)
	p := NewPool(4)
	if got := p.Hamming(a, b); got != want {
		t.Fatalf("before close: %d != %d", got, want)
	}
	p.Close()
	p.Close() // idempotent
	if got := p.Hamming(a, b); got != want {
		t.Fatalf("after close: %d != %d", got, want)
	}
	dst := hv.New(10000)
	p.Xor(dst, a, b)
	if !hv.Equal(dst, hv.Xor(a, b)) {
		t.Fatal("after close: XOR deviates")
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

// TestCollectivesAllocationFree pins the steady-state collectives at
// zero allocations per call.
func TestCollectivesAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := hv.NewRandom(10000, rng), hv.NewRandom(10000, rng)
	dst := hv.New(10000)
	set := make([]hv.Vector, 5)
	for i := range set {
		set[i] = hv.NewRandom(10000, rng)
	}
	p := NewPool(4)
	defer p.Close()
	// Warm up the lazily-grown per-worker scratch.
	p.Hamming(a, b)
	p.Majority(dst, set)
	p.AMSearch(a, set)
	for name, f := range map[string]func(){
		"Hamming":  func() { p.Hamming(a, b) },
		"Xor":      func() { p.Xor(dst, a, b) },
		"Majority": func() { p.Majority(dst, set) },
		"AMSearch": func() { p.AMSearch(a, set) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestForRangeAllocationFree pins ForRange at zero allocations per
// call once the pool's workers are running.
func TestForRangeAllocationFree(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	counts := make([]int64, 256)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i]++ // chunks are disjoint: no two workers share an index
		}
	}
	p.ForRange(256, fn)
	if allocs := testing.AllocsPerRun(50, func() { p.ForRange(256, fn) }); allocs != 0 {
		t.Errorf("ForRange %v allocs/op, want 0", allocs)
	}
}
