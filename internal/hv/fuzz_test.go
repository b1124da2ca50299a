package hv

import (
	"testing"

	"pulphd/internal/hdref"
)

// FuzzRotateAgainstReference drives the packed rotation with arbitrary
// bit patterns, dimensions and shifts, comparing against the unpacked
// golden model. The tail-carrying word paths are where packed
// implementations historically break.
func FuzzRotateAgainstReference(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, uint16(13), int16(1))
	f.Add([]byte{0xaa, 0x55, 0x00, 0xf0, 0x12}, uint16(37), int16(-5))
	f.Add([]byte{1}, uint16(1), int16(100))
	f.Fuzz(func(t *testing.T, raw []byte, dRaw uint16, k int16) {
		d := int(dRaw)%512 + 1
		bits := make([]byte, d)
		for i := range bits {
			if len(raw) > 0 && raw[i%len(raw)]&(1<<(uint(i)%8)) != 0 {
				bits[i] = 1
			}
		}
		v := FromBits(bits)
		got := Rotate(v, int(k))
		want := FromBits(hdref.Rotate(hdref.Bits(bits), int(k)))
		if !Equal(got, want) {
			t.Fatalf("d=%d k=%d: packed rotation deviates from reference", d, k)
		}
		// Tail invariant must hold after every operation.
		if got.NumWords() > 0 {
			last := got.Word(got.NumWords() - 1)
			if last&^got.tailMask() != 0 {
				t.Fatalf("d=%d k=%d: garbage above the tail: %08x", d, k, last)
			}
		}
	})
}

// FuzzMajorityAgainstReference cross-checks the bit-sliced majority.
func FuzzMajorityAgainstReference(f *testing.F) {
	f.Add([]byte{0xff, 0x01, 0x02}, uint16(40), uint8(3))
	f.Add([]byte{0x00}, uint16(7), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, dRaw uint16, nRaw uint8) {
		d := int(dRaw)%256 + 1
		n := int(nRaw)%7 | 1 // odd, 1..7
		packed := make([]Vector, n)
		unpacked := make([]hdref.Bits, n)
		for vi := 0; vi < n; vi++ {
			bits := make([]byte, d)
			for i := range bits {
				if len(raw) > 0 && raw[(i+vi*7)%len(raw)]&(1<<(uint(i+vi)%8)) != 0 {
					bits[i] = 1
				}
			}
			packed[vi] = FromBits(bits)
			unpacked[vi] = hdref.Bits(bits)
		}
		got := Majority(packed...)
		want := FromBits(hdref.Majority(unpacked))
		if !Equal(got, want) {
			t.Fatalf("d=%d n=%d: packed majority deviates from reference", d, n)
		}
	})
}

// FuzzHammingAgainstReference cross-checks both Hamming kernels
// against the unpacked golden model at arbitrary dimensions (up to
// 188 words: two 32-pair vector steps plus every tail shape) and
// bounds: HammingWords must match exactly, and hammingWithin must be
// exact below its bound and at or above it otherwise.
func FuzzHammingAgainstReference(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, []byte{0x0f}, uint16(13), uint16(5))
	f.Add([]byte{0xaa, 0x55, 0x00}, []byte{0x55}, uint16(5999), uint16(900))
	f.Add([]byte{0x12, 0x34}, []byte{0x12, 0x35}, uint16(4097), uint16(0))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, dRaw, boundRaw uint16) {
		d := int(dRaw)%6000 + 1
		// Component i is bit i%8 of raw byte i/8, the raw bytes
		// repeating to fill the dimension.
		unpack := func(raw []byte) []byte {
			bits := make([]byte, d)
			for i := range bits {
				if len(raw) > 0 {
					bits[i] = raw[(i/8)%len(raw)] >> (uint(i) % 8) & 1
				}
			}
			return bits
		}
		ba, bb := unpack(rawA), unpack(rawB)
		a, b := FromBits(ba), FromBits(bb)
		want := hdref.Hamming(hdref.Bits(ba), hdref.Bits(bb))
		bound := int(boundRaw) % (d + 2)
		forEachHammingKernel(t, func(t *testing.T) {
			if got := Hamming(a, b); got != want {
				t.Fatalf("d=%d: Hamming=%d, reference %d", d, got, want)
			}
			checkWithin(t, a.words, b.words, want, bound)
		})
	})
}
