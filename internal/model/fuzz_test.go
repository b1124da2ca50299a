package model

import (
	"bytes"
	"testing"

	"pulphd/internal/hdc"
)

// FuzzLoadServing feeds arbitrary bytes to the version-3 loader, which
// decodes snapshots a replica fetches from a peer and the registry
// reads from disk: it must return an error or a model, never panic,
// and any snapshot it accepts must re-save to exactly the bytes it
// read (anything after the CRC trailer is not part of the snapshot).
func FuzzLoadServing(f *testing.F) {
	for _, backend := range []hdc.Backend{hdc.BackendStored, hdc.BackendRemat} {
		var buf bytes.Buffer
		if err := SaveServing(&buf, fixtureModel(f, backend), fixtureWALSeq); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(valid[:len(magicV3)+servingHeadLen+10])
		mutated := append([]byte(nil), valid...)
		mutated[len(mutated)/2] ^= 0x10
		f.Add(mutated)
	}
	f.Add([]byte{})
	f.Add(magicV3[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		sv, walSeq, err := LoadServing(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := SaveServing(&again, sv, walSeq); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		if again.Len() > len(data) || !bytes.Equal(again.Bytes(), data[:again.Len()]) {
			t.Fatalf("accepted %d bytes re-save as %d different bytes", len(data), again.Len())
		}
	})
}
