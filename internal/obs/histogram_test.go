package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestHistogramIndexMonotonic pins the bucket layout: indices never
// decrease with the value, every bucket's upper bound maps back to
// itself, and the next value after an upper bound lands in the next
// bucket.
func TestHistogramIndexMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345, 1 << 62, math.MaxInt64} {
		idx := index(v)
		if idx < prev {
			t.Fatalf("index(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		ub := upperBound(idx)
		if ub < v {
			t.Fatalf("upper bound %d of bucket %d below member %d", ub, idx, v)
		}
		if index(ub) != idx {
			t.Fatalf("upper bound %d of bucket %d maps to bucket %d", ub, idx, index(ub))
		}
		if idx+1 < histBuckets && index(ub+1) != idx+1 {
			t.Fatalf("value %d after bucket %d maps to %d, want %d", ub+1, idx, index(ub+1), idx+1)
		}
	}
	if index(-5) != 0 {
		t.Fatal("negative values must clamp to bucket 0")
	}
}

// TestHistogramHoldsOnlyReachableBuckets pins the array size: the
// largest int64 lands in the last bucket, so no bucket is dead weight.
func TestHistogramHoldsOnlyReachableBuckets(t *testing.T) {
	if got := index(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("index(MaxInt64) = %d, want the last bucket %d", got, histBuckets-1)
	}
	if upperBound(histBuckets-1) != math.MaxInt64 {
		t.Fatalf("last bucket tops out at %d, want MaxInt64", upperBound(histBuckets-1))
	}
	var h Histogram
	if histBuckets != 3712 || unsafe.Sizeof(h.counts) != 29696 {
		t.Fatalf("%d buckets in %d B, want 3712 in 29,696 B", histBuckets, unsafe.Sizeof(h.counts))
	}
}

// TestHistogramQuantileError checks quantiles against an exactly
// sorted sample: the histogram answer must be ≥ the true order
// statistic and within the ~1.6% relative bucket width above it.
func TestHistogramQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	n := 20000
	vals := make([]int64, n)
	for i := range vals {
		// Log-uniform latencies from ~1 µs to ~1 s.
		v := int64(1000 * (1 << uint(rng.Intn(20))))
		v += rng.Int63n(v)
		vals[i] = v
		h.ObserveNanos(v)
	}
	slices.Sort(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(n)+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		truth := vals[rank]
		got := int64(h.Quantile(q))
		if got < truth {
			t.Errorf("q=%v: histogram %d below true order statistic %d", q, got, truth)
		}
		if float64(got) > float64(truth)*1.04 {
			t.Errorf("q=%v: histogram %d more than 4%% above true %d", q, got, truth)
		}
	}
	if c := h.Snapshot().Count; c != int64(n) {
		t.Fatalf("count %d, want %d", c, n)
	}
	if h.Max() != time.Duration(vals[n-1]) {
		t.Fatalf("max %d, want %d", h.Max(), vals[n-1])
	}
}

// TestHistogramEdges pins the empty-histogram zeros and nil-safety of
// the quantile side.
func TestHistogramEdges(t *testing.T) {
	var empty Histogram
	if empty.Quantile(0.99) != 0 || empty.Snapshot().Count != 0 || empty.Max() != 0 {
		t.Fatal("empty histogram must answer zeros")
	}
	var nilH *Histogram
	nilH.Observe(time.Second)
	if nilH.Quantile(0.5) != 0 || nilH.Snapshot().Count != 0 || nilH.Max() != 0 {
		t.Fatal("nil histogram must no-op")
	}
}

// goldenFixture is the observation set the goldens in testdata were
// cut from with the two histogram types this one replaced: negatives,
// zero, both sides of every finite export bound 256·2^i, 2^62, and
// 5,000 log-uniform values from 1 ns to 2^41 ns drawn by a fixed LCG.
// Together they fill all 24 export buckets.
func goldenFixture() []int64 {
	vals := []int64{-1_000_000, -1, 0, 1 << 62}
	for i := 0; i < HistogramBuckets-1; i++ {
		b := int64(1<<histBaseBits) << i
		vals = append(vals, b-1, b)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		shift := (x >> 33) % 41
		vals = append(vals, int64(1)<<shift+int64((x>>8)&(1<<shift-1)))
	}
	return vals
}

type goldenQuantile struct {
	Q  float64 `json:"q"`
	Ns int64   `json:"ns"`
}

// histogramGolden is testdata/histogram.json: the registry snapshot
// entries, quantiles and max of the fixture.
type histogramGolden struct {
	Snapshot  map[string]any   `json:"snapshot"`
	Quantiles []goldenQuantile `json:"quantiles"`
	MaxNs     int64            `json:"max_ns"`
}

// TestHistogramGolden pins everything a reader of the histogram sees
// — the Prometheus text of a nanosecond and a seconds family, the
// expvar snapshot entries, the quantiles and the max — byte for byte
// against what the fixed-bucket export histogram and the separate
// log-linear quantile histogram produced before they were one type.
func TestHistogramGolden(t *testing.T) {
	var ns, sec Histogram
	for _, v := range goldenFixture() {
		ns.ObserveNanos(v)
		sec.ObserveNanos(v)
	}
	r := NewRegistry()
	r.RegisterHistogram("pulphd_golden_latency_ns", "golden fixture latency in nanoseconds", &ns)
	r.RegisterSecondsHistogram("pulphd_golden_latency_seconds", "golden fixture latency in seconds", &sec)
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	g := histogramGolden{Snapshot: r.Snapshot(), MaxNs: int64(ns.Max())}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		g.Quantiles = append(g.Quantiles, goldenQuantile{q, int64(ns.Quantile(q))})
	}
	js, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string][]byte{
		"testdata/histogram.prom": prom.Bytes(),
		"testdata/histogram.json": append(js, '\n'),
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden:\ngot:\n%s\nwant:\n%s", file, got, want)
		}
	}
}

// FuzzHistogramAgainstSorted records arbitrary int64 values and checks
// every read of the histogram against a sorted-slice oracle: each
// quantile lies in the bucket of the exact order statistic and not
// below it, the export counts equal direct counting against the
// 256·2^i bounds, Σ Counts == Count, and Sum and Max are exact.
func FuzzHistogramAgainstSorted(f *testing.F) {
	seed := func(vals ...int64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(seed())
	f.Add(seed(0))
	f.Add(seed(-1, 255, 256, 511, 512, 1<<30-1, 1<<30))
	f.Add(seed(math.MaxInt64, 1<<62, 63, 64, 65, 1_000_000))
	f.Add(seed(math.MinInt64, -7, 0, 0, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		var vals []int64
		var sum, maxV int64
		for ; len(data) >= 8; data = data[8:] {
			v := int64(binary.LittleEndian.Uint64(data))
			vals = append(vals, v)
			h.ObserveNanos(v)
			sum += v
			maxV = max(maxV, v)
		}
		s := h.Snapshot()
		if s.SumNs != sum || int64(h.Max()) != maxV {
			t.Fatalf("sum %d max %d, want %d and %d", s.SumNs, h.Max(), sum, maxV)
		}
		var want [HistogramBuckets]int64
		for _, v := range vals {
			i := 0
			for i < HistogramBuckets-1 && v > BucketBound(i) {
				i++
			}
			want[i]++
		}
		var total int64
		for _, n := range s.Counts {
			total += n
		}
		if s.Counts != want || total != s.Count || s.Count != int64(len(vals)) {
			t.Fatalf("export counts %v (Σ %d, Count %d), want %v (n %d)", s.Counts, total, s.Count, want, len(vals))
		}
		slices.Sort(vals)
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got := int64(h.Quantile(q))
			if len(vals) == 0 {
				if got != 0 {
					t.Fatalf("empty q=%v: %d, want 0", q, got)
				}
				continue
			}
			rank := min(max(int(q*float64(len(vals))+0.5), 1), len(vals))
			exact := max(vals[rank-1], 0)
			if got < exact || index(got) != index(exact) {
				t.Fatalf("q=%v: %d, want within the bucket of %d (bucket %d, got bucket %d)", q, got, exact, index(exact), index(got))
			}
		}
	})
}
