package hdc

import (
	"context"
	"math/rand"
	"testing"

	"pulphd/internal/fault"
	"pulphd/internal/hv"
)

// rematConfig is EMGConfig on the rematerializing backend.
func rematConfig() Config {
	cfg := EMGConfig()
	cfg.Backend = BackendRemat
	return cfg
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want Backend
	}{{"stored", BackendStored}, {"remat", BackendRemat}} {
		got, err := ParseBackend(tc.s)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.s, got, err)
		}
		if got.String() != tc.s {
			t.Fatalf("Backend(%v).String() = %q, want %q", got, got.String(), tc.s)
		}
	}
	if _, err := ParseBackend("mmap"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
	cfg := EMGConfig()
	cfg.Backend = Backend(7)
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an unknown backend")
	}
}

// TestRematRowsMatchGoldenExpansion pins the remat IM rows to the hv
// seed expansion they are defined by: Vector(i) must equal
// hv.ExpandRow of the documented key, so the row layout can never
// drift from the format the docs (and future snapshots) promise.
func TestRematRowsMatchGoldenExpansion(t *testing.T) {
	const d, n, seed = 10000, 4, 42
	im := NewRematItemMemory(d, n, seed)
	if im.Backend() != BackendRemat || im.Len() != n || im.Dim() != d {
		t.Fatalf("remat IM shape: backend=%v len=%d dim=%d", im.Backend(), im.Len(), im.Dim())
	}
	for i := 0; i < n; i++ {
		want := hv.ExpandRow(d, hv.RowKey(seed, 1, uint32(i)))
		if hv.Hamming(im.Vector(i), want) != 0 {
			t.Fatalf("item %d differs from golden expansion", i)
		}
	}
	// CIM level 0 is exactly the base row (cut 0: no flips applied).
	cim := NewRematContinuousItemMemory(d, 22, 0, 21, seed+1)
	base := hv.ExpandRow(d, hv.RowKey(seed+1, 2, 0))
	if hv.Hamming(cim.VectorForLevel(0), base) != 0 {
		t.Fatal("CIM level 0 differs from the base expansion row")
	}
}

// TestRematCIMProperties checks the interpolation contract of the
// rematerialized CIM: every level near half density, distances from
// level 0 strictly nested (monotone in level), endpoints ≈ d/2 apart.
func TestRematCIMProperties(t *testing.T) {
	const d, levels = 10000, 22
	cim := NewRematContinuousItemMemory(d, levels, 0, 21, 7)
	if cim.Levels() != levels {
		t.Fatalf("Levels() = %d, want %d", cim.Levels(), levels)
	}
	prev := 0
	l0 := cim.VectorForLevel(0)
	for l := 1; l < levels; l++ {
		v := cim.VectorForLevel(l)
		if dens := v.Density(); dens < 0.45 || dens > 0.55 {
			t.Fatalf("level %d density %.3f not ≈ 0.5", l, dens)
		}
		dist := hv.Hamming(l0, v)
		if dist <= prev {
			t.Fatalf("level %d: distance %d from level 0 not strictly above level %d's %d", l, dist, l-1, prev)
		}
		prev = dist
	}
	if nd := float64(prev) / d; nd < 0.45 || nd > 0.55 {
		t.Fatalf("endpoint distance %.3f·d not ≈ d/2", nd)
	}
}

// TestRematFusedEncodeMatchesMaterialized is the core equivalence pin:
// the fused seed-expansion encode must be bit-identical to the stored
// encode path running over Materialize()d copies of the same memories
// — odd and even channel counts (the §5.1 tie-break block), and
// dimensions whose final block is partial.
func TestRematFusedEncodeMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{96, 100, 10000} {
		for _, channels := range []int{1, 3, 4, 8} {
			im := NewRematItemMemory(d, channels, 11)
			cim := NewRematContinuousItemMemory(d, 22, 0, 21, 12)
			fused := NewSpatialEncoder(im, cim)
			stored := NewSpatialEncoder(im.Materialize(), cim.Materialize())
			got, want := hv.New(d), hv.New(d)
			samples := make([]float64, channels)
			for trial := 0; trial < 20; trial++ {
				for i := range samples {
					samples[i] = rng.Float64() * 21
				}
				fused.EncodeTo(got, samples)
				stored.EncodeTo(want, samples)
				if hv.Hamming(got, want) != 0 {
					t.Fatalf("d=%d channels=%d trial %d: fused encode differs from materialized-stored encode", d, channels, trial)
				}
			}
		}
	}
}

// materializedCopy rebuilds a classifier with the stored backend over
// Materialize()d copies of c's item memories and c's exact prototypes
// — the reference the remat classifier is pinned against.
func materializedCopy(t *testing.T, c *Classifier) *Classifier {
	t.Helper()
	cfg := c.cfg
	cfg.Backend = BackendStored
	out := MustNew(cfg)
	out.im = c.im.Materialize()
	out.cim = c.cim.Materialize()
	out.spatial = NewSpatialEncoder(out.im, out.cim)
	for i, label := range c.am.Labels() {
		out.am.SetPrototype(label, c.am.Prototype(i).Clone())
	}
	return out
}

// TestRematClassifierAgreesWithStored quickchecks the end-to-end
// contract: a remat-backend classifier and a stored-backend classifier
// over the materialized expansion agree on every prediction — label
// and exact Hamming distance.
func TestRematClassifierAgreesWithStored(t *testing.T) {
	c, tests := trainedClassifier(t, rematConfig(), 16)
	ref := materializedCopy(t, c)
	for i, w := range tests {
		gotL, gotD := c.Predict(w)
		wantL, wantD := ref.Predict(w)
		if gotL != wantL || gotD != wantD {
			t.Fatalf("window %d: remat (%q,%d) != stored (%q,%d)", i, gotL, gotD, wantL, wantD)
		}
	}
}

// TestRematCorruptComposition pins fault composition: corrupting a
// rematerialized memory and then materializing it must equal
// materializing first and corrupting the stored copy — same flip
// counts, bit-identical rows — because both apply the same pure
// (seed, site, bit) masks. BER 0 composes nothing.
func TestRematCorruptComposition(t *testing.T) {
	const d = 2048
	m := fault.Model{BER: 0.01, Seed: 3}

	im := NewRematItemMemory(d, 4, 21)
	ref := im.Materialize()
	if got, want := im.Corrupt(m), ref.Corrupt(m); got != want {
		t.Fatalf("IM flip counts: remat %d, stored %d", got, want)
	}
	for i := 0; i < im.Len(); i++ {
		if hv.Hamming(im.Vector(i), ref.Vector(i)) != 0 {
			t.Fatalf("IM item %d: corrupt-then-materialize differs from materialize-then-corrupt", i)
		}
	}

	cim := NewRematContinuousItemMemory(d, 8, 0, 7, 22)
	cref := cim.Materialize()
	if got, want := cim.Corrupt(m), cref.Corrupt(m); got != want {
		t.Fatalf("CIM flip counts: remat %d, stored %d", got, want)
	}
	for l := 0; l < cim.Levels(); l++ {
		if hv.Hamming(cim.VectorForLevel(l), cref.VectorForLevel(l)) != 0 {
			t.Fatalf("CIM level %d differs after corruption", l)
		}
	}

	// DMA-transfer corruption: same equivalence at the PointDMA sites.
	im2 := NewRematItemMemory(d, 4, 23)
	ref2 := im2.Materialize()
	if got, want := im2.CorruptTransfer(m), ref2.CorruptTransfer(m); got != want {
		t.Fatalf("transfer flip counts: remat %d, stored %d", got, want)
	}
	for i := 0; i < im2.Len(); i++ {
		if hv.Hamming(im2.Vector(i), ref2.Vector(i)) != 0 {
			t.Fatalf("IM item %d differs after transfer corruption", i)
		}
	}

	// BER 0 is a strict no-op: nothing composed, fast path retained.
	im3 := NewRematItemMemory(d, 4, 25)
	before := im3.Vector(0)
	if n := im3.Corrupt(fault.Model{}); n != 0 || len(im3.rem.faults) != 0 {
		t.Fatalf("BER 0 composed a channel: flips=%d faults=%d", n, len(im3.rem.faults))
	}
	if hv.Hamming(im3.Vector(0), before) != 0 {
		t.Fatal("BER 0 changed a row")
	}
}

// TestRematCorruptedEncodeMatchesMaterialized extends the encode
// equivalence through composed faults: the fused slow path (faults
// registered) must match the stored path over corrupted materialized
// memories.
func TestRematCorruptedEncodeMatchesMaterialized(t *testing.T) {
	const d, channels = 1024, 4
	m := fault.Model{BER: 0.02, Seed: 9}
	im := NewRematItemMemory(d, channels, 31)
	cim := NewRematContinuousItemMemory(d, 22, 0, 21, 32)
	im.Corrupt(m)
	cim.Corrupt(m)
	fused := NewSpatialEncoder(im, cim)
	stored := NewSpatialEncoder(im.Materialize(), cim.Materialize())
	got, want := hv.New(d), hv.New(d)
	rng := rand.New(rand.NewSource(6))
	samples := make([]float64, channels)
	for trial := 0; trial < 20; trial++ {
		for i := range samples {
			samples[i] = rng.Float64() * 21
		}
		fused.EncodeTo(got, samples)
		stored.EncodeTo(want, samples)
		if hv.Hamming(got, want) != 0 {
			t.Fatalf("trial %d: corrupted fused encode differs", trial)
		}
	}
}

// TestRematTruncatePrefix pins dimension surgery: truncated remat rows
// are exact prefixes of the full ones (keys and cuts survive, only the
// dimension shrinks).
func TestRematTruncatePrefix(t *testing.T) {
	const d, d2 = 10000, 2000
	im := NewRematItemMemory(d, 4, 41)
	tim := im.Truncate(d2)
	for i := 0; i < im.Len(); i++ {
		if hv.Hamming(tim.Vector(i), hv.Truncate(im.Vector(i), d2)) != 0 {
			t.Fatalf("IM item %d: truncated row is not a prefix", i)
		}
	}
	cim := NewRematContinuousItemMemory(d, 22, 0, 21, 43)
	tcim := cim.Truncate(d2)
	for l := 0; l < cim.Levels(); l++ {
		if hv.Hamming(tcim.VectorForLevel(l), hv.Truncate(cim.VectorForLevel(l), d2)) != 0 {
			t.Fatalf("CIM level %d: truncated row is not a prefix", l)
		}
	}
	// End to end: a truncated remat classifier still predicts, and its
	// item memories keep the remat backend.
	c, tests := trainedClassifier(t, rematConfig(), 4)
	tc, err := c.Truncated(d2)
	if err != nil {
		t.Fatal(err)
	}
	if tc.IM().Backend() != BackendRemat || tc.CIM().Backend() != BackendRemat {
		t.Fatal("Truncated dropped the remat backend")
	}
	for _, w := range tests {
		tc.Predict(w)
	}
}

// TestRematFootprint pins the footprint win the backend exists for:
// IM+CIM shrink from matrices to keys (orders of magnitude at the
// paper's geometry) and the L1 working set to blocks.
func TestRematFootprint(t *testing.T) {
	stored := MustNew(EMGConfig())
	remat := MustNew(rematConfig())
	sf, rf := stored.Footprint(5), remat.Footprint(5)
	if rf.IMBytes != 4*8 {
		t.Fatalf("remat IM bytes = %d, want %d", rf.IMBytes, 4*8)
	}
	if rf.CIMBytes != 16+22*8 {
		t.Fatalf("remat CIM bytes = %d, want %d", rf.CIMBytes, 16+22*8)
	}
	if rf.IMBytes*10 > sf.IMBytes || rf.CIMBytes*10 > sf.CIMBytes {
		t.Fatalf("remat IM+CIM %d+%d not an order of magnitude under stored %d+%d",
			rf.IMBytes, rf.CIMBytes, sf.IMBytes, sf.CIMBytes)
	}
	if rf.BoundBytes >= sf.BoundBytes {
		t.Fatalf("remat bound scratch %d not under stored %d", rf.BoundBytes, sf.BoundBytes)
	}
}

// TestRematServing exercises the serving layer on the remat backend:
// learn/predict round trips, and ResidentBytes reports the shrunken
// footprint.
func TestRematServing(t *testing.T) {
	cfg := rematConfig()
	sv, err := NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, tests := trainedClassifier(t, cfg, 8)
	for _, cl := range []struct {
		label string
		base  float64
	}{{"rest", 2}, {"open", 10}, {"fist", 19}} {
		w := [][]float64{{cl.base, cl.base, cl.base, cl.base}}
		if err := sv.Learn(cl.label, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range tests {
		sv.Predict(w)
	}
	storedSv, err := NewServing(EMGConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sv.ResidentBytes() >= storedSv.ResidentBytes() {
		t.Fatalf("remat serving resident %d B not under stored %d B", sv.ResidentBytes(), storedSv.ResidentBytes())
	}
	// Serving predictions agree with the in-process classifier's AM
	// search over the same encode (both flow through batchCtx.encodeTo).
	svc := c.Serving()
	for i, w := range tests {
		gotL, gotD := svc.Predict(w)
		wantL, wantD := c.Predict(w)
		if gotL != wantL || gotD != wantD {
			t.Fatalf("window %d: serving (%q,%d) != classifier (%q,%d)", i, gotL, gotD, wantL, wantD)
		}
	}
}

// TestRematPredictAllocationFree pins the satellite criterion: the
// fused remat encode keeps Predict's zero-allocation steady state.
func TestRematPredictAllocationFree(t *testing.T) {
	c, tests := trainedClassifier(t, rematConfig(), 4)
	c.Predict(tests[0]) // threshold dirty prototypes, warm scratch
	allocs := testing.AllocsPerRun(50, func() {
		for _, w := range tests {
			c.Predict(w)
		}
	})
	if allocs != 0 {
		t.Fatalf("remat Predict: %v allocs per 4-window run, want 0", allocs)
	}
}

// TestRematBatchAllocationFree pins the batched encode path on the
// remat backend, matching the stored-path serving pins: the fused
// batch encode (batchCtx.encodeTo) and steady-state Session.PredictCtx
// over a batch of windows allocate nothing.
func TestRematBatchAllocationFree(t *testing.T) {
	c, tests := trainedClassifier(t, rematConfig(), 8)
	bc := newBatchCtx(c)
	n := c.cfg.NGram
	allocs := testing.AllocsPerRun(20, func() {
		for _, w := range tests {
			bc.encodeTo(bc.query, w, n)
		}
	})
	if allocs != 0 {
		t.Fatalf("remat batch encode: %v allocs per 8-window run, want 0", allocs)
	}

	ses := c.Serving().NewSession()
	ctx := context.Background()
	predictAll := func() {
		for _, w := range tests {
			ses.PredictCtx(ctx, nil, w)
		}
	}
	predictAll()
	if allocs = testing.AllocsPerRun(20, predictAll); allocs != 0 {
		t.Fatalf("remat Session.PredictCtx: %v allocs per 8-window run, want 0", allocs)
	}
}

// TestStoredEncodeAllocationFree pins the stored spatial encode at 0
// allocations per call at 4 channels (EMG) and at the §4.2 sweep's 64
// and 256, past the 32 at which a bound-vector encode's majority
// allocated its list of rows.
func TestStoredEncodeAllocationFree(t *testing.T) {
	for _, ch := range []int{4, 64, 256} {
		cfg := benchEncodeConfig(ch, BackendStored)
		c := MustNew(cfg)
		rng := rand.New(rand.NewSource(int64(ch)))
		samples := make([]float64, ch)
		for i := range samples {
			samples[i] = rng.Float64() * cfg.MaxLevel
		}
		dst := hv.New(cfg.D)
		if allocs := testing.AllocsPerRun(20, func() { c.spatial.EncodeTo(dst, samples) }); allocs != 0 {
			t.Fatalf("%d channels: stored encode made %v allocs per call, want 0", ch, allocs)
		}
	}
}

// TestRematMixedBackendsPanic pins the constructor guard: an encoder
// over memories from different backends is a bug, not a silent
// misclassification.
func TestRematMixedBackendsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpatialEncoder accepted mixed backends")
		}
	}()
	NewSpatialEncoder(NewRematItemMemory(256, 4, 1), NewContinuousItemMemory(256, 22, 0, 21, 2))
}
