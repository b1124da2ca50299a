package model_test

import (
	"bytes"
	"fmt"

	"pulphd/internal/hdc"
	"pulphd/internal/model"
)

// Train off-line, snapshot, and deploy: the loaded model predicts
// identically because the item memories regenerate from the stored
// seed and the prototypes and class counts travel verbatim.
func Example() {
	cfg := hdc.Config{
		D: 1000, Channels: 4, Levels: 22, MinLevel: 0, MaxLevel: 21,
		NGram: 1, Window: 1, Seed: 11,
	}
	trained := hdc.MustNew(cfg)
	trained.Train("fist", [][]float64{{17, 14, 3, 5}})
	trained.Train("open", [][]float64{{4, 6, 16, 13}})

	var blob bytes.Buffer
	if err := model.SaveServing(&blob, trained.Serving(), 0); err != nil {
		fmt.Println("save:", err)
		return
	}
	size := blob.Len()
	deployed, _, err := model.LoadServing(&blob)
	if err != nil {
		fmt.Println("load:", err)
		return
	}

	sample := [][]float64{{16, 13, 4, 6}}
	wantLabel, _ := trained.Predict(sample)
	gotLabel, _ := deployed.Predict(sample)
	fmt.Println("blob bytes:", size, "| agree:", wantLabel == gotLabel, "| label:", gotLabel)
	// Output:
	// blob bytes: 662 | agree: true | label: fist
}
