package hdc

import (
	"fmt"

	"pulphd/internal/hv"
)

// SpatialEncoder represents the set of all channel-value pairs at one
// timestamp as a single binary hypervector:
//
//	S_t = [(E1 ⊕ V_1^t) + ... + (Ei ⊕ V_i^t)]
//
// Multiplication binds each channel to its signal level and addition
// (componentwise majority) forms the set (§2.1.1). With an even number
// of channels, the XOR of the first two bound hypervectors joins the
// majority as the reproducible tie-breaker (§5.1: "with four channels,
// we use five bound hypervectors for the majority").
type SpatialEncoder struct {
	im  *ItemMemory
	cim *ContinuousItemMemory
	// scratch for the stored backend: the CIM row each channel's
	// sample selects, handed with the IM rows to hv.BindMajorityTo and
	// cleared after the call.
	rows []hv.Vector
	// scratch for the fused rematerializing path (remat backend): the
	// quantized level per channel and one 64-bit block per majority
	// input — the whole per-call working set.
	levels []int
	blocks []uint64
}

// NewSpatialEncoder builds a spatial encoder over the given item
// memories, which must share a dimensionality and a backend.
func NewSpatialEncoder(im *ItemMemory, cim *ContinuousItemMemory) *SpatialEncoder {
	if im.Dim() != cim.Dim() {
		panic(fmt.Sprintf("hdc: NewSpatialEncoder: IM dim %d != CIM dim %d", im.Dim(), cim.Dim()))
	}
	if im.Backend() != cim.Backend() {
		panic(fmt.Sprintf("hdc: NewSpatialEncoder: IM backend %v != CIM backend %v", im.Backend(), cim.Backend()))
	}
	c := im.Len()
	enc := &SpatialEncoder{im: im, cim: cim}
	if im.Backend() == BackendRemat {
		enc.levels = make([]int, c)
		enc.blocks = make([]uint64, c|1) // room for the tie-break block
		return enc
	}
	enc.rows = make([]hv.Vector, c)
	return enc
}

// Channels returns the number of input channels.
func (e *SpatialEncoder) Channels() int { return e.im.Len() }

// Dim returns the hypervector dimensionality.
func (e *SpatialEncoder) Dim() int { return e.im.Dim() }

// Encode maps one time-aligned sample vector (one analog value per
// channel) into the spatial hypervector S_t.
func (e *SpatialEncoder) Encode(samples []float64) hv.Vector {
	out := hv.New(e.Dim())
	e.EncodeTo(out, samples)
	return out
}

// EncodeTo is Encode without the allocation; dst must have the encoder
// dimensionality. Both backends bind and bundle in one pass, with no
// bound vector stored: the stored backend hands each channel's IM row
// and sampled CIM row to the fused kernel hv.BindMajorityTo; the
// rematerializing backend runs its seed-expansion kernel (remat.go).
func (e *SpatialEncoder) EncodeTo(dst hv.Vector, samples []float64) {
	c := e.im.Len()
	if len(samples) != c {
		panic(fmt.Sprintf("hdc: SpatialEncoder.Encode: %d samples for %d channels", len(samples), c))
	}
	if e.im.rem != nil {
		e.encodeRematTo(dst, samples)
		return
	}
	for i, x := range samples {
		e.rows[i] = e.cim.Vector(x)
	}
	hv.BindMajorityTo(dst, e.im.items, e.rows)
	clear(e.rows) // pooled scratch keeps no model's rows reachable
}

// TemporalEncoder combines a sequence of N spatial hypervectors at
// consecutive timestamps into an N-gram hypervector:
//
//	G = S_t ⊕ ρ¹S_{t+1} ⊕ ρ²S_{t+2} ⊕ … ⊕ ρ^{n-1}S_{t+n-1}
//
// where ρ^k rotates the components by k positions (§2.1.1). N = 1
// reduces to the identity. EEG-scale applications use N-grams as
// large as 29; the paper's scalability study sweeps N up to 10.
type TemporalEncoder struct {
	d int
	n int
	// rot is scratch for the rotated term.
	rot hv.Vector
}

// NewTemporalEncoder returns an encoder producing N-grams of size n
// over d-dimensional vectors. It panics if n < 1.
func NewTemporalEncoder(d, n int) *TemporalEncoder {
	if n < 1 {
		panic(fmt.Sprintf("hdc: NewTemporalEncoder: N-gram size must be ≥1, got %d", n))
	}
	return &TemporalEncoder{d: d, n: n, rot: hv.New(d)}
}

// N returns the N-gram size.
func (e *TemporalEncoder) N() int { return e.n }

// Dim returns the hypervector dimensionality.
func (e *TemporalEncoder) Dim() int { return e.d }

// Encode combines seq (whose length must equal N) into the N-gram
// hypervector.
func (e *TemporalEncoder) Encode(seq []hv.Vector) hv.Vector {
	out := hv.New(e.d)
	e.EncodeTo(out, seq)
	return out
}

// EncodeTo is Encode without the allocation.
func (e *TemporalEncoder) EncodeTo(dst hv.Vector, seq []hv.Vector) {
	if len(seq) != e.n {
		panic(fmt.Sprintf("hdc: TemporalEncoder.Encode: got %d vectors, want N=%d", len(seq), e.n))
	}
	copy(dst.Words(), seq[0].Words())
	for k := 1; k < e.n; k++ {
		hv.RotateTo(e.rot, seq[k], k)
		hv.XorTo(dst, dst, e.rot)
	}
}
