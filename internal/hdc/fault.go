package hdc

import "pulphd/internal/fault"

// This file wires the deterministic bit-error channel of
// internal/fault into the classifier's three stored memories — the
// architectural injection points of DESIGN.md §11. Corruption is in
// place and deterministic in (model seed, memory, element index); a
// BER of zero touches nothing and leaves the classifier bit-identical
// to an uninjected one.

// Corrupt applies the bit-error model to every seed hypervector of
// the item memory and returns the total number of flipped components.
// Item i corrupts at site fault.SiteOf(fault.PointIM, i). A
// rematerialized memory has no stored rows to flip; the channel is
// composed into the generators instead (see remat.go), producing rows
// bit-identical to corrupting stored copies.
func (im *ItemMemory) Corrupt(m fault.Model) int {
	if im.rem != nil {
		return composeFault(&im.rem.faults, m, fault.PointIM, len(im.rem.keys), im.d)
	}
	flips := 0
	for i, v := range im.items {
		flips += m.CorruptVector(fault.SiteOf(fault.PointIM, i), v)
	}
	return flips
}

// CorruptTransfer applies a DMA bit-error model to the item memory —
// the simulated L2→L1 transfer of the encode working set, one
// fault.PointDMA site per row. The stored backend corrupts each row in
// place exactly like pulp.Platform.Transfer onto itself; the
// rematerialized backend composes the same deterministic masks into
// its generators, so both backends yield bit-identical rows.
func (im *ItemMemory) CorruptTransfer(m fault.Model) int {
	if im.rem != nil {
		return composeFault(&im.rem.faults, m, fault.PointDMA, len(im.rem.keys), im.d)
	}
	flips := 0
	for i, v := range im.items {
		flips += m.CorruptVector(fault.SiteOf(fault.PointDMA, i), v)
	}
	return flips
}

// Corrupt applies the bit-error model to every prestored level
// hypervector of the continuous item memory and returns the total
// number of flipped components. Level l corrupts at site
// fault.SiteOf(fault.PointCIM, l). A rematerialized CIM composes the
// channel into its generators, like ItemMemory.Corrupt.
func (c *ContinuousItemMemory) Corrupt(m fault.Model) int {
	if c.rem != nil {
		return composeFault(&c.rem.faults, m, fault.PointCIM, c.n, c.d)
	}
	flips := 0
	for l, v := range c.levels {
		flips += m.CorruptVector(fault.SiteOf(fault.PointCIM, l), v)
	}
	return flips
}

// Corrupt applies the bit-error model to every stored class prototype
// and returns the total number of flipped components. Class i corrupts
// at site fault.SiteOf(fault.PointAM, i). Like InjectFaults, it
// freezes the prototypes first so later reads cannot re-threshold
// clean copies from the training accumulators — except at BER 0,
// which is a strict no-op.
func (am *AssociativeMemory) Corrupt(m fault.Model) int {
	if !m.Enabled() {
		return 0
	}
	am.refresh()
	for i := range am.accum {
		am.accum[i] = nil
	}
	flips := 0
	for i := range am.labels {
		p := am.slab.Row(i)
		flips += m.CorruptVector(fault.SiteOf(fault.PointAM, i), p)
		am.slab = am.slab.With(i, p)
	}
	return flips
}

// InjectBitErrors applies the bit-error model to all three stored
// memories of the classifier — IM seed vectors, CIM level vectors, and
// AM class prototypes — and returns the total number of flipped
// components. This simulates holding the whole model in faulty
// (e.g. low-voltage) memory; the accuracy-vs-BER sweep of
// experiments.FaultSweep is built on it. A model with BER 0 returns 0
// and changes nothing.
func (c *Classifier) InjectBitErrors(m fault.Model) int {
	if !m.Enabled() {
		return 0
	}
	return c.im.Corrupt(m) + c.cim.Corrupt(m) + c.am.Corrupt(m)
}
