// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B target each, reporting the headline
// numbers as custom metrics (kcycles, speed-ups, accuracy) so
// `go test -bench=. -benchmem` reproduces the whole evaluation. The
// printable row-by-row output comes from `go run ./cmd/pulphd all`.
package pulphd

import (
	"math/rand"
	"sync"
	"testing"

	"pulphd/internal/eeg"
	"pulphd/internal/emg"
	"pulphd/internal/experiments"
	"pulphd/internal/hdc"
	"pulphd/internal/hv"
	"pulphd/internal/kernels"
	"pulphd/internal/pulp"
)

// prepared caches the synthetic campaign across benchmarks.
var prepared = sync.OnceValue(func() *experiments.Prepared {
	return experiments.Prepare(emg.DefaultProtocol(), 1)
})

// BenchmarkAccuracy regenerates the §4.1 accuracy comparison
// (paper: HD 92.4%, SVM 89.6%).
func BenchmarkAccuracy(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Accuracy(p, 10000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MeanHD, "HD_acc_%")
		b.ReportMetric(100*r.MeanSVM, "SVM_acc_%")
		b.ReportMetric(float64(r.MinSVs), "min_SVs")
	}
}

// BenchmarkDimSweep regenerates the §4.1 graceful-degradation sweep.
func BenchmarkDimSweep(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.DimSweep(p, []int{10000, 200, 100})
		b.ReportMetric(100*r.Mean[0], "acc_10000D_%")
		b.ReportMetric(100*r.Mean[1], "acc_200D_%")
		b.ReportMetric(100*r.Mean[2], "acc_100D_%")
	}
}

// BenchmarkTable1 regenerates Table 1 (paper: HD 12.35 kcycles /
// 90.7%, SVM 25.10 kcycles / 89.6% on the M4).
func BenchmarkTable1(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.HDKCycles, "HD_kcycles")
		b.ReportMetric(r.SVMKCycles, "SVM_kcycles")
		b.ReportMetric(100*r.HDAccuracy, "HD_acc_%")
		b.ReportMetric(100*r.SVMAccuracy, "SVM_acc_%")
	}
}

// BenchmarkTable2 regenerates Table 2 (paper: boosts 4.9× / 8.1× /
// 9.9× vs the M4, 2× energy saving from parallelism).
func BenchmarkTable2(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(p)
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.Boost, "boost_4c_0.5V_x")
		b.ReportMetric(r.EnergySaving, "energy_saving_x")
		b.ReportMetric(r.Rows[1].TotalmW, "pulpv3_1c_mW")
	}
}

// BenchmarkTable3 regenerates Table 3 (paper: 3.73× on 4-core PULPv3,
// 18.38× on 8-core Wolf with built-ins).
func BenchmarkTable3(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(p)
		total := r.Cells[2]
		b.ReportMetric(total[1].Speedup, "sp_pulpv3_4c_x")
		b.ReportMetric(total[3].Speedup, "sp_wolf1c_builtin_x")
		b.ReportMetric(total[4].Speedup, "sp_wolf8c_builtin_x")
	}
}

// BenchmarkFig3 regenerates Fig. 3 (cycles linear in dimension).
func BenchmarkFig3(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(p)
		n10 := r.KCycles[len(r.KCycles)-1]
		b.ReportMetric(n10[len(n10)-1], "N10_10000D_kcycles")
		// Linearity witness: slope ratio between segments.
		s1 := (n10[1] - n10[0]) / 2000
		s2 := (n10[len(n10)-1] - n10[len(n10)-2]) / 2000
		b.ReportMetric(s2/s1, "slope_ratio")
	}
}

// BenchmarkFig4 regenerates Fig. 4 (near-ideal core scaling; paper:
// 6.5× on 8 cores).
func BenchmarkFig4(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(p)
		lastN := r.Speedup[len(r.Speedup)-1]
		b.ReportMetric(lastN[len(lastN)-1], "sp_8c_N10_x")
		b.ReportMetric(r.Speedup[0][len(r.Speedup[0])-1], "sp_8c_N1_x")
	}
}

// BenchmarkFig5 regenerates Fig. 5 (linear channel scaling; the M4
// misses the 10 ms budget beyond 16 channels).
func BenchmarkFig5(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(p)
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.KCycles/first.KCycles, "cycles_256ch_over_4ch")
		b.ReportMetric(last.FootprintKB, "mem_256ch_kB")
		maxOK := 0
		for _, row := range r.Rows {
			if row.M4MeetsBudget && row.Channels > maxOK {
				maxOK = row.Channels
			}
		}
		b.ReportMetric(float64(maxOK), "m4_max_channels")
	}
}

// BenchmarkFaults regenerates the fault-injection robustness study.
func BenchmarkFaults(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Faults(p, 10000, []float64{0, 30})
		b.ReportMetric(100*r.MeanAcc[0], "acc_0pct_faults_%")
		b.ReportMetric(100*r.MeanAcc[1], "acc_30pct_faults_%")
	}
}

// BenchmarkAblation quantifies the §3/§5.1 design choices.
func BenchmarkAblation(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Ablation(p)
		b.ReportMetric(r.Rows[1].DeltaPct, "no_double_buffering_%")
		b.ReportMetric(r.Rows[2].DeltaPct, "no_builtins_%")
	}
}

// --- library microbenchmarks (host-side performance of the packed
// representation itself) ---

func BenchmarkXor10000D(b *testing.B) {
	rng := benchRNG()
	x, y := hv.NewRandom(10000, rng), hv.NewRandom(10000, rng)
	dst := hv.New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hv.XorTo(dst, x, y)
	}
}

func BenchmarkHamming10000D(b *testing.B) {
	rng := benchRNG()
	x, y := hv.NewRandom(10000, rng), hv.NewRandom(10000, rng)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += hv.Hamming(x, y)
	}
	_ = sink
}

func BenchmarkRotate10000D(b *testing.B) {
	rng := benchRNG()
	x := hv.NewRandom(10000, rng)
	dst := hv.New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hv.RotateTo(dst, x, i%97+1)
	}
}

func BenchmarkMajority5x10000D(b *testing.B) {
	rng := benchRNG()
	set := make([]hv.Vector, 5)
	for i := range set {
		set[i] = hv.NewRandom(10000, rng)
	}
	dst := hv.New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hv.MajorityTo(dst, set)
	}
}

func BenchmarkSpatialEncode(b *testing.B) {
	cls := hdc.MustNew(hdc.EMGConfig())
	window := [][]float64{{12, 3, 9, 1}}
	for i := 0; i < b.N; i++ {
		cls.EncodeWindow(window)
	}
}

func BenchmarkEndToEndClassification(b *testing.B) {
	cls := hdc.MustNew(hdc.EMGConfig())
	rngW := [][]float64{{12, 3, 9, 1}}
	cls.Train("a", rngW)
	cls.Train("b", [][]float64{{1, 14, 2, 8}})
	for i := 0; i < b.N; i++ {
		cls.Predict(rngW)
	}
}

// BenchmarkSimulatedChain measures the simulator itself: one full
// cycle-accounted classification on the 8-core Wolf.
func BenchmarkSimulatedChain(b *testing.B) {
	a := kernels.SyntheticChain(10000, 4, 1, 5, 1)
	w := a.SyntheticWindow(2)
	plat := pulp.WolfPlatform(8, true)
	for i := 0; i < b.N; i++ {
		_, work := a.Classify(w)
		plat.RunChain(work.Kernels())
	}
}

// benchRNG returns the deterministic RNG used by the
// microbenchmarks.
func benchRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

// BenchmarkEEG regenerates the EEG-style temporal study headline.
func BenchmarkEEG(b *testing.B) {
	proto := eeg.DefaultProtocol()
	proto.Subjects = 1
	proto.TrialsPerClass = 30
	for i := 0; i < b.N; i++ {
		r := experiments.EEG(proto, 2000, []int{1, 29})
		b.ReportMetric(100*r.MeanAcc[0], "acc_N1_%")
		b.ReportMetric(100*r.MeanAcc[1], "acc_N29_%")
	}
}

// BenchmarkLangID regenerates the language-identification study.
func BenchmarkLangID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.LangID(10000, []int{3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Acc[0], "acc_trigram_%")
	}
}

// BenchmarkFusion regenerates the multimodal-fusion dropout study.
func BenchmarkFusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fusion(4000, 20, 0.8, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.FullAcc, "full_acc_%")
		b.ReportMetric(100*r.DropAcc[0], "accel_drop_acc_%")
	}
}

// BenchmarkTrainingCost regenerates the on-device learning study.
func BenchmarkTrainingCost(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.TrainingCost(p)
		b.ReportMetric(r.Rows[2].Overhead, "wolf8_train_over_infer_x")
		b.ReportMetric(r.Rows[2].TrainKCycles, "wolf8_train_kcycles")
	}
}

// BenchmarkTruncation regenerates the model-compression comparison.
func BenchmarkTruncation(b *testing.B) {
	p := prepared()
	for i := 0; i < b.N; i++ {
		r := experiments.Truncation(p, 10000, []int{200})
		b.ReportMetric(100*r.Retrained[0], "retrained_200D_%")
		b.ReportMetric(100*r.Truncated[0], "truncated_200D_%")
	}
}

// BenchmarkDrift regenerates the adaptation-strategy comparison.
func BenchmarkDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.DriftStudy(emg.DefaultProtocol(), 2000, 0.8, 0.995)
		b.ReportMetric(100*r.FrozenAcc, "frozen_acc_%")
		b.ReportMetric(100*r.AdaptiveAcc, "adaptive_acc_%")
	}
}
