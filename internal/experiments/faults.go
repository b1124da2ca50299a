package experiments

import (
	"fmt"

	"pulphd/internal/fault"
	"pulphd/internal/hdc"
	"pulphd/internal/pulp"
	"pulphd/internal/svm"
)

// FaultSweepResult is the accuracy-vs-BER robustness study built on
// the deterministic bit-error channel of internal/fault: every stored
// bit of the HD model (IM, CIM, AM) flips with probability BER, and on
// platforms with a DMA the inference working set additionally passes
// through a faulty L2→L1 transfer. The SVM baseline keeps its float
// parameters in the same faulty memory; a single exponent-bit flip can
// change a coefficient by orders of magnitude, so at equal BER the SVM
// collapses much earlier than the HD classifier — the quantitative
// form of §4.1's "graceful degradation with ... faulty components".
type FaultSweepResult struct {
	D    int
	Seed int64
	// BERs are the swept bit-error rates.
	BERs []float64
	// Platforms names the HD rows; HD[p][b] is the mean accuracy of
	// platform p at BERs[b].
	Platforms []string
	HD        [][]float64
	// SVM[b] is the float-parameter baseline's mean accuracy at
	// BERs[b], platform-independent (no DMA model for the baseline).
	SVM []float64
}

// faultPlatforms returns the platforms of the robustness sweep: the
// DMA-less M4 corrupts stored memories only, while the cluster
// platforms additionally corrupt the simulated L2→L1 transfers.
func faultPlatforms() []pulp.Platform {
	return []pulp.Platform{
		pulp.CortexM4Platform(),
		pulp.PULPv3Platform(4),
		pulp.WolfPlatform(8, true),
	}
}

// corruptedHDCopy builds a cheap corrupted copy of a trained
// classifier: the item memories regenerate deterministically from the
// configuration seed and the learned prototypes are installed as fixed
// vectors, so only the corruption itself is per-cell work. The model m
// is applied to all stored memories; on platforms with a DMA, the
// inference working set (IM vectors and AM prototypes) then passes
// through Platform.Transfer with the same channel, simulating faulty
// writes into a low-voltage L1 TCDM. With BER 0 the copy is
// bit-identical to the trained classifier.
func corruptedHDCopy(trained *hdc.Classifier, plat pulp.Platform, m fault.Model) *hdc.Classifier {
	cp := hdc.MustNew(trained.Config())
	labels := trained.AM().Labels()
	for i, label := range labels {
		cp.AM().SetPrototype(label, trained.AM().Prototype(i))
	}
	cp.InjectBitErrors(m)
	if plat.DMA.Present && m.Enabled() {
		p := plat
		p.DMA.Fault = m
		// One simulated L2→L1 load of the inference working set. The
		// IM transfer goes through CorruptTransfer so it works on both
		// backends: the stored one corrupts each row in place (bit-
		// identical to an aliasing Platform.Transfer at the same DMA
		// sites), the rematerialized one composes the same masks into
		// its generators. AM sites follow the IM sites; prototypes are
		// always stored, so each transfers in place on a copy that
		// SetPrototype installs.
		cp.IM().CorruptTransfer(m)
		base := cp.IM().Len()
		for c, label := range labels {
			v := cp.AM().Prototype(c)
			p.Transfer(fault.SiteOf(fault.PointDMA, base+c), v.Words(), v.Words(), v.Dim())
			cp.AM().SetPrototype(label, v)
		}
	}
	return cp
}

// FaultSweep trains the HD classifier and the SVM baseline once per
// subject, then re-measures test accuracy under growing bit-error
// rates on each platform. Corruption is deterministic in (seed,
// subject): rerunning the sweep reproduces the same accuracy table
// bit for bit.
func FaultSweep(p *Prepared, d int, bers []float64, seed int64) (*FaultSweepResult, error) {
	plats := faultPlatforms()
	res := &FaultSweepResult{D: d, Seed: seed, BERs: bers}
	for _, plat := range plats {
		res.Platforms = append(res.Platforms, plat.Name)
	}
	res.HD = make([][]float64, len(plats))
	for i := range res.HD {
		res.HD[i] = make([]float64, len(bers))
	}
	res.SVM = make([]float64, len(bers))

	type trainedSubject struct {
		hd  *hdc.Classifier
		svm *svm.Model
	}
	trained := make([]trainedSubject, len(p.Subjects))
	for i, sub := range p.Subjects {
		sm, err := trainSubjectSVM(sub)
		if err != nil {
			return nil, fmt.Errorf("subject %d SVM: %w", sub.Subject, err)
		}
		trained[i] = trainedSubject{hd: trainHD(sub, hdConfigFor(p, d)), svm: sm}
	}

	for bi, ber := range bers {
		for si, sub := range p.Subjects {
			m := fault.Model{BER: ber, Seed: seed + int64(si)}
			if err := m.Validate(); err != nil {
				return nil, err
			}
			for pi, plat := range plats {
				hd := corruptedHDCopy(trained[si].hd, plat, m)
				res.HD[pi][bi] += accuracyOf(func(w LabeledWindow) string {
					l, _ := hd.Predict(w.Window)
					return l
				}, sub.Test)
			}
			sm := trained[si].svm
			if m.Enabled() {
				sm = sm.Clone()
				sm.InjectBitErrors(m)
			}
			res.SVM[bi] += accuracyOf(func(w LabeledWindow) string {
				return sm.Predict(w.Features)
			}, sub.Test)
		}
		n := float64(len(p.Subjects))
		for pi := range plats {
			res.HD[pi][bi] /= n
		}
		res.SVM[bi] /= n
	}
	return res, nil
}

// Table renders the accuracy-vs-BER comparison.
func (r *FaultSweepResult) Table() *Table {
	header := []string{"classifier"}
	for _, b := range r.BERs {
		header = append(header, fmt.Sprintf("BER %g", b))
	}
	t := &Table{
		Title:  fmt.Sprintf("Bit-error robustness — mean accuracy vs BER, %d-D (seed %d)", r.D, r.Seed),
		Header: header,
	}
	for pi, name := range r.Platforms {
		row := []string{"HD " + name}
		for bi := range r.BERs {
			row = append(row, pct(r.HD[pi][bi]))
		}
		t.AddRow(row...)
	}
	row := []string{"SVM (float params)"}
	for bi := range r.BERs {
		row = append(row, pct(r.SVM[bi]))
	}
	t.AddRow(row...)
	t.AddNote("HD flips stored bits; DMA platforms also corrupt the simulated L2→L1 load")
	t.AddNote("SVM: each float64 parameter is hit w.p. 1-(1-BER)^64 — collapse long before HD degrades")
	return t
}
