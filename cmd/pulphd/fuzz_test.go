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

	f.Add(`{"window": [[1, 2, 3, 4]]}`)
	f.Add(`{"window": [[1, 2, 3, 4], [5, 6, 7, 8]]}`)
	f.Add(`{"window": []}`)
	f.Add(`{"window": [[1]]}`)
	f.Add(`{"window": [[1e999, 2, 3, 4]]}`)
	f.Add(`{"window": null}`)
	f.Add(`{"label": "x", "window": [[1, 2, 3, 4]]}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`[[1, 2, 3, 4]]`)
	f.Add(`{"window": [[1, 2, 3, 4]]}{"window": [[1, 2, 3, 4]]}`)

	f.Fuzz(func(t *testing.T, body string) {
		window, err := decodePredictWindow(sv, strings.NewReader(body))
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
