// Package obs is the observability layer of the reproduction: cycle
// tracing for the platform simulator and runtime metrics for the host
// inference path.
//
// The two halves mirror the two engines of DESIGN.md §7. A Trace
// attaches to pulp.Platform and records every KernelResult the
// simulator produces — per platform and core count, split into
// compute / serial / runtime / visible-DMA / hidden-DMA lanes — and
// exports Chrome trace-event JSON (chrome://tracing, Perfetto) plus a
// plain-text summary, making the paper's Table 2/3 cycle accounting
// inspectable event by event. The metric types (Counter, Gauge,
// Histogram and the domain bundles in domains.go) instrument the
// serving path (the hdc.Serving predict and learn, the HTTP front end
// and the model registry) and export through expvar and a
// Prometheus-style text endpoint. Histogram is the one latency
// histogram: the same log-linear type backs every /metrics histogram,
// the SLO engine's per-model quantiles (package slo) and the load
// harness's client-side tail (package load).
//
// Everything is off by default and nil-safe: a nil *Counter,
// *Histogram or domain-metrics pointer is a no-op, so instrumented
// code pays one pointer compare when observability is disabled and
// performs no heap allocation either way.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing, allocation-free atomic
// counter. The zero value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways (a
// replica's lag in generations behind its primary). The zero value is
// ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value; 0 for a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is the one latency histogram of the package: /metrics
// exports it, the SLO engine reads its quantiles per model, and the
// load harness its client-observed tail. It uses the HdrHistogram
// log-linear layout: values below 2^subBits get a bucket each, and
// every power-of-two magnitude above is split into 2^subBits linear
// sub-buckets, bounding the relative quantile error at 1/2^subBits
// (~1.6%) from 1 ns to the largest int64. Recording is two atomic
// adds and a max compare, allocation-free, so any number of goroutines
// share one histogram; quantiles and snapshots read it without
// stopping the writers (mid-update reads are approximate, never
// corrupt). The zero value is ready to use; a nil *Histogram is a
// no-op.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// subBits is the number of linear sub-bucket bits per power-of-two
// magnitude: 64 sub-buckets, ~1.6% worst-case relative error.
const subBits = 6

// histBuckets is the bucket count that covers every int64:
// index(math.MaxInt64) is its last bucket.
const histBuckets = (64 - subBits) << subBits

// index maps a value to its bucket; negative values clamp to 0.
func index(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0)) // exact buckets for tiny values
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// upperBound returns the largest value mapping to bucket i.
func upperBound(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	shift := uint(i>>subBits) - 1
	base := uint64(1<<subBits+i&(1<<subBits-1)) << shift
	return int64(base + 1<<shift - 1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one nanosecond measurement.
func (h *Histogram) ObserveNanos(ns int64) {
	if h == nil {
		return
	}
	h.counts[index(ns)].Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// Max returns the largest observation, 0 when empty.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound
// of the bucket holding the round(q·count)-th observation, so the
// reported p99 is never below the true one and at most the bucket's
// ~1.6% width above it. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := min(max(int64(q*float64(total)+0.5), 1), total)
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(upperBound(i))
		}
	}
	return h.Max()
}

// HistogramBuckets is the bucket count of the export view every
// Histogram is folded into for /metrics. The first export bucket spans
// [0, 256 ns) and each subsequent one doubles the upper bound, so the
// last finite bound is 256ns·2²² ≈ 1.07 s; the final bucket is the
// +Inf overflow. Every finite bound is a power of two, so it starts a
// log-linear bucket and no log-linear bucket straddles two export
// buckets: the fold is exact.
const HistogramBuckets = 24

// histBaseBits is log2 of the upper bound of export bucket 0 (256 ns).
const histBaseBits = 8

// exportBucket maps log-linear bucket i to its export bucket. Bucket i
// lies in magnitude m = i>>subBits, which spans [2^(m+subBits-1),
// 2^(m+subBits)) for m ≥ 1 and exports to bucket m+subBits-histBaseBits,
// clamped to [0, +Inf].
func exportBucket(i int) int {
	return min(max(i>>subBits+subBits-histBaseBits, 0), HistogramBuckets-1)
}

// BucketBound returns the inclusive upper bound of export bucket i in
// nanoseconds, or -1 for the +Inf overflow bucket.
func BucketBound(i int) int64 {
	if i >= HistogramBuckets-1 {
		return -1
	}
	return 1<<histBaseBits<<i - 1
}

// HistogramSnapshot is an internally consistent copy of a histogram
// for export: Count is derived from the bucket counts read into
// Counts, so Count always equals the cumulative +Inf bucket that the
// Prometheus exposition writes — even when the snapshot is taken
// mid-update. SumNs is read separately and may be off by the handful
// of in-flight observations (it only feeds the mean); the structural
// invariant the scrape format needs — Σ Counts == Count — holds by
// construction.
type HistogramSnapshot struct {
	Counts [HistogramBuckets]int64
	SumNs  int64
	Count  int64
}

// Snapshot copies the current state; the zero snapshot for nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[exportBucket(i)] += n
		s.Count += n
	}
	s.SumNs = h.sum.Load()
	return s
}

// Mean returns the mean observation in nanoseconds, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.Count)
}
