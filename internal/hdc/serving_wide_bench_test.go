package hdc_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pulphd/internal/emg"
	"pulphd/internal/experiments"
	"pulphd/internal/hdc"
)

// wideModel is the model of hdbench's wide-am workload at seed 1, and
// that subject's test windows: one synthetic subject of the paper's
// EMG protocol, its training windows learned first, then 1,024
// one-sample distractor classes uniform over the CIM's input range,
// drawn from seed ^ 0x5eed.
var wideModel = sync.OnceValues(func() (*hdc.Serving, []experiments.LabeledWindow) {
	const seed = 1
	proto := emg.DefaultProtocol()
	proto.Seed = seed
	proto.Subjects = 1
	cfg := hdc.EMGConfig()
	subj := experiments.Prepare(proto, cfg.Window).Subjects[0]
	sv, err := hdc.NewServing(cfg, 1)
	if err != nil {
		panic(err)
	}
	for _, w := range subj.Train {
		if err := sv.Learn(w.Label, w.Window); err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for c := 0; c < 1024; c++ {
		row := make([]float64, cfg.Channels)
		for i := range row {
			row[i] = cfg.MinLevel + rng.Float64()*(cfg.MaxLevel-cfg.MinLevel)
		}
		if err := sv.Learn(fmt.Sprintf("w%04d", c), [][]float64{row}); err != nil {
			panic(err)
		}
	}
	return sv, subj.Test
})

// BenchmarkServingPredictWide is one Serving.Predict, encode included,
// on the wide-am model, cycling through its subject's test windows:
// the AM scan meets the rows and queries hdbench serves, where most
// predicts are won by a distractor outside block 0, unlike the
// synthetic rows of hv's BenchmarkNearest.
func BenchmarkServingPredictWide(b *testing.B) {
	sv, test := wideModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.Predict(test[i%len(test)].Window)
	}
}
