package model

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pulphd/internal/hdc"
	"pulphd/internal/hv"
)

// servingFixture builds a small serving model with a few learned
// classes so the snapshot carries non-trivial accumulators.
func servingFixture(t *testing.T, backend hdc.Backend, learns int) *hdc.Serving {
	t.Helper()
	cfg := hdc.EMGConfig()
	cfg.D = 640
	cfg.Backend = backend
	sv, err := hdc.NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(learns)))
	labels := []string{"rest", "fist", "point"}
	for i := 0; i < learns; i++ {
		w := make([][]float64, cfg.Window)
		for ti := range w {
			row := make([]float64, cfg.Channels)
			for c := range row {
				row[c] = cfg.MinLevel + rng.Float64()*(cfg.MaxLevel-cfg.MinLevel)
			}
			w[ti] = row
		}
		if err := sv.Learn(labels[i%len(labels)], w); err != nil {
			t.Fatal(err)
		}
	}
	return sv
}

func TestSaveLoadServingRoundTrip(t *testing.T) {
	for _, backend := range []hdc.Backend{hdc.BackendStored, hdc.BackendRemat} {
		t.Run(backend.String(), func(t *testing.T) {
			// 0 learns is a model with no classes yet.
			for _, learns := range []int{0, 9} {
				sv := servingFixture(t, backend, learns)
				var buf bytes.Buffer
				if err := SaveServing(&buf, sv, 10); err != nil {
					t.Fatal(err)
				}
				got, walSeq, err := LoadServing(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%d learns: %v", learns, err)
				}
				if walSeq != 10 {
					t.Fatalf("%d learns: walSeq %d, want 10", learns, walSeq)
				}
				if got.Generation() != sv.Generation() || got.Classes() != sv.Classes() {
					t.Fatalf("%d learns: restored gen/classes %d/%d, want %d/%d",
						learns, got.Generation(), got.Classes(), sv.Generation(), sv.Classes())
				}
				// Byte-identical: re-saving the restored model reproduces
				// the snapshot exactly.
				var again bytes.Buffer
				if err := SaveServing(&again, got, 10); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), again.Bytes()) {
					t.Fatalf("%d learns: save/load/save is not byte-identical", learns)
				}
			}
		})
	}
	// A label of maxLabelLen bytes saves; one byte more is refused, so
	// the loader's bound never rejects what the saver wrote.
	sv := servingFixture(t, hdc.BackendStored, 0)
	w := fixtureWindow(sv.Config(), rand.New(rand.NewSource(1)))
	if err := sv.Learn(strings.Repeat("a", maxLabelLen), w); err != nil {
		t.Fatal(err)
	}
	if err := SaveServing(io.Discard, sv, 0); err != nil {
		t.Fatalf("%d-byte label: %v", maxLabelLen, err)
	}
	if err := sv.Learn(strings.Repeat("b", maxLabelLen+1), w); err != nil {
		t.Fatal(err)
	}
	if err := SaveServing(io.Discard, sv, 0); err == nil {
		t.Fatalf("%d-byte label saved", maxLabelLen+1)
	}
}

func TestSaveLoadServingResumesLearning(t *testing.T) {
	sv := servingFixture(t, hdc.BackendStored, 6)
	var buf bytes.Buffer
	if err := SaveServing(&buf, sv, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadServing(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The same Learn applied to both publishes byte-identical state:
	// the accumulators survived, not just the prototypes.
	cfg := sv.Config()
	w := make([][]float64, cfg.Window)
	for i := range w {
		row := make([]float64, cfg.Channels)
		for c := range row {
			row[c] = cfg.MinLevel + float64(c)
		}
		w[i] = row
	}
	if err := sv.Learn("rest", w); err != nil {
		t.Fatal(err)
	}
	if err := got.Learn("rest", w); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := SaveServing(&a, sv, 0); err != nil {
		t.Fatal(err)
	}
	if err := SaveServing(&b, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("learning diverged after snapshot restore")
	}
}

func TestReadServingMeta(t *testing.T) {
	sv := servingFixture(t, hdc.BackendRemat, 4)
	var buf bytes.Buffer
	if err := SaveServing(&buf, sv, 7); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadServingMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 4 || meta.Classes != sv.Classes() || meta.WALSeq != 7 {
		t.Fatalf("meta %+v, want gen 4, classes %d, walSeq 7", meta, sv.Classes())
	}
	if meta.Config.Backend != hdc.BackendRemat || meta.Config.D != 640 {
		t.Fatalf("meta config %+v", meta.Config)
	}
	// A bad magic, and every cut short of the full head, is an error.
	data := buf.Bytes()
	badMagic := append([]byte("PULPHD02"), data[len(magicV3):]...)
	if _, err := ReadServingMeta(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("bad magic read")
	}
	for n := 0; n < len(magicV3)+servingHeadLen; n++ {
		if _, err := ReadServingMeta(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("head cut to %d bytes read", n)
		}
	}
}

func TestLoadServingDetectsCorruption(t *testing.T) {
	sv := servingFixture(t, hdc.BackendStored, 5)
	var buf bytes.Buffer
	if err := SaveServing(&buf, sv, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Sampled single-byte flips across the stream: every one must be
	// rejected (magic, geometry, or CRC), never loaded silently.
	for i := 0; i < len(data); i += 7 {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x20
		if _, _, err := LoadServing(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("byte %d flip loaded without error", i)
		}
	}
	// Every strict prefix is rejected, of this snapshot and of both
	// committed fixtures: a cut in any field, not just between them.
	snaps := map[string][]byte{"servingFixture": data}
	for _, backend := range []hdc.Backend{hdc.BackendStored, hdc.BackendRemat} {
		name := "serving-" + backend.String() + ".snap"
		fixture, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		snaps[name] = fixture
	}
	for name, snap := range snaps {
		for n := 0; n < len(snap); n++ {
			if _, _, err := LoadServing(bytes.NewReader(snap[:n])); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes loaded", name, n, len(snap))
			}
		}
	}
	// A learnable flag other than 0 or 1 is rejected as such, before
	// the CRC is reached. The first class's flag follows its label and
	// prototype.
	off := len(magicV3) + servingHeadLen
	off += 4 + int(binary.LittleEndian.Uint32(data[off:])) + 4*hv.WordsFor(sv.Config().D)
	mutated := append([]byte(nil), data...)
	mutated[off] = 2
	if _, _, err := LoadServing(bytes.NewReader(mutated)); err == nil || !strings.Contains(err.Error(), "learnable flag 2") {
		t.Fatalf("learnable flag 2: err %v", err)
	}
}

func TestLoadServingRejectsUntrustedGeometry(t *testing.T) {
	sv := servingFixture(t, hdc.BackendStored, 3)
	var buf bytes.Buffer
	if err := SaveServing(&buf, sv, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Blow up the class count field (head word 9 at offset 8+8*8); the
	// loader must bound-check before trusting it.
	mutated := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		mutated[8+8*8+i] = 0xff
	}
	if _, _, err := LoadServing(bytes.NewReader(mutated)); err == nil {
		t.Fatal("implausible class count loaded")
	}
}

// TestServingCodecAllocationsPerModel pins that the snapshot codec
// allocates per model and per class, never per count plane: a model
// whose classes each learned 1,000 times (ten planes) saves and loads
// in exactly as many allocations as one at five learns (three planes).
// The encoder's one buffer must be exactly sized.
func TestServingCodecAllocationsPerModel(t *testing.T) {
	for _, backend := range []hdc.Backend{hdc.BackendStored, hdc.BackendRemat} {
		t.Run(backend.String(), func(t *testing.T) {
			var saves, loads [2]float64
			for k, learns := range []int{5, 1000} {
				sv := emgModel(t, backend, learns)
				snap, gen, err := EncodeServing(sv, 0)
				if err != nil {
					t.Fatal(err)
				}
				if gen != sv.Generation() || len(snap) != cap(snap) {
					t.Fatalf("encoded generation %d into %d of %d bytes; want generation %d, exactly sized",
						gen, len(snap), cap(snap), sv.Generation())
				}
				saves[k] = testing.AllocsPerRun(20, func() {
					if err := SaveServing(io.Discard, sv, 0); err != nil {
						t.Fatal(err)
					}
				})
				loads[k] = testing.AllocsPerRun(20, func() {
					if _, _, err := LoadServing(bytes.NewReader(snap)); err != nil {
						t.Fatal(err)
					}
				})
			}
			if saves[0] != saves[1] || loads[0] != loads[1] {
				t.Fatalf("allocations at 5 vs 1,000 learns per class: save %v vs %v, load %v vs %v",
					saves[0], saves[1], loads[0], loads[1])
			}
		})
	}
}

// emgModel returns a serving model at the paper's EMG geometry whose
// five classes each learned learns random windows.
func emgModel(t *testing.T, backend hdc.Backend, learns int) *hdc.Serving {
	t.Helper()
	cfg := hdc.EMGConfig()
	cfg.Backend = backend
	sv, err := hdc.NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	labels := []string{"rest", "fist", "point", "grip", "open"}
	for i := 0; i < learns*len(labels); i++ {
		if err := sv.Learn(labels[i%len(labels)], fixtureWindow(cfg, rng)); err != nil {
			t.Fatal(err)
		}
	}
	return sv
}
