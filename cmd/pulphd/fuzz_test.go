package main

import (
	"strings"
	"testing"
)

// FuzzPredictHTTP feeds arbitrary bodies to the /predict request
// decoder — the parse-and-validate surface every remote caller hits.
// The contract: any input yields an error or a window the model
// accepts without panicking; no input reaches Predict with a shape the
// encoders would reject.
func FuzzPredictHTTP(f *testing.F) {
	cfg := testServingConfig()
	sv := trainedServing(f)
	for _, body := range fuzzPredictSeeds {
		f.Add(body)
	}
	wb := new(wireBuf) // reused across inputs, as the pool reuses it
	f.Fuzz(func(t *testing.T, body string) {
		window, err := wb.decodePredict(sv, strings.NewReader(body))
		if err != nil {
			return
		}
		// Decoded windows must be servable: Predict panics on shapes the
		// decoder should have rejected.
		if label, dist := sv.Predict(window); label == "" || dist < 0 || dist > cfg.D {
			t.Fatalf("accepted window predicted (%q,%d)", label, dist)
		}
	})
}

// fuzzPredictSeeds is FuzzPredictHTTP's seed corpus;
// FuzzWireAgainstEncodingJSON starts from it too.
var fuzzPredictSeeds = []string{
	`{"window": [[1, 2, 3, 4]]}`,
	`{"window": [[1, 2, 3, 4], [5, 6, 7, 8]]}`,
	`{"window": []}`,
	`{"window": [[1]]}`,
	`{"window": [[1e999, 2, 3, 4]]}`,
	`{"window": null}`,
	`{"label": "x", "window": [[1, 2, 3, 4]]}`,
	`{}`,
	``,
	`[[1, 2, 3, 4]]`,
	`{"window": [[1, 2, 3, 4]]}{"window": [[1, 2, 3, 4]]}`,
}
