package hv

import (
	"math/rand"
	"slices"
	"strconv"
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
// 188 words: two 32-pair vector steps plus every tail shape).
func FuzzHammingAgainstReference(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, []byte{0x0f}, uint16(13))
	f.Add([]byte{0xaa, 0x55, 0x00}, []byte{0x55}, uint16(5999))
	f.Add([]byte{0x12, 0x34}, []byte{0x12, 0x35}, uint16(4097))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, dRaw uint16) {
		d := int(dRaw)%6000 + 1
		ba, bb := unpackRaw(rawA, d), unpackRaw(rawB, d)
		a, b := FromBits(ba), FromBits(bb)
		want := hdref.Hamming(hdref.Bits(ba), hdref.Bits(bb))
		forEachHammingKernel(t, func(t *testing.T) {
			if got := Hamming(a, b); got != want {
				t.Fatalf("d=%d: Hamming=%d, reference %d", d, got, want)
			}
		})
	})
}

// FuzzBindMajorityAgainstReference cross-checks both kernels of the
// fused bind and majority against the golden model's spatial encode,
// hdref.SpatialEncode: unpacked XOR, the XOR of the first two bound
// vectors for an even count, unpacked majority. The fuzzer picks the
// bytes of a seed row, the dimension (1–1,100, or 10,000), the channel
// count (1–16: every carry-save size and the count planes past them)
// and an rng seed. Each row is the seed row with a few bits flipped or
// a random one, so bound words agree and tie often; each channel's
// level row is one of three, so channels share rows as quantized
// levels do.
func FuzzBindMajorityAgainstReference(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, uint16(13), uint8(3), int64(1))
	f.Add([]byte{0xaa, 0x55, 0x00}, uint16(512), uint8(6), int64(2))
	f.Add([]byte{0x12, 0x34}, uint16(1033), uint8(8), int64(3))
	f.Add([]byte{0x0f}, uint16(0), uint8(15), int64(4))
	f.Fuzz(func(t *testing.T, raw []byte, dRaw uint16, cRaw uint8, seed int64) {
		d := int(dRaw)%1100 + 1
		if dRaw%8 == 0 {
			d = 10000
		}
		c := int(cRaw)%16 + 1
		rng := rand.New(rand.NewSource(seed))
		base := unpackRaw(raw, d)
		row := func() []byte {
			if rng.Intn(3) == 0 {
				return NewRandom(d, rng).Bits()
			}
			r := append([]byte(nil), base...)
			for k := rng.Intn(d/16 + 2); k > 0; k-- {
				r[rng.Intn(d)] ^= 1
			}
			return r
		}
		table := [][]byte{row(), row(), row()}
		items, levels := make([]Vector, c), make([]Vector, c)
		refItems, refLevels := make([]hdref.Bits, c), make([]hdref.Bits, c)
		for i := range items {
			refItems[i], refLevels[i] = row(), table[rng.Intn(len(table))]
			items[i], levels[i] = FromBits(refItems[i]), FromBits(refLevels[i])
		}
		want := FromBits(hdref.SpatialEncode(refItems, refLevels))
		forEachHammingKernel(t, func(t *testing.T) {
			got := NewRandom(d, rng)
			BindMajorityTo(got, items, levels)
			if !Equal(got, want) {
				t.Fatalf("d=%d c=%d: BindMajorityTo deviates from the reference", d, c)
			}
		})
	})
}

// unpackRaw expands fuzz bytes to d components: component i is bit
// i%8 of raw byte i/8, the raw bytes repeating to fill the dimension.
func unpackRaw(raw []byte, d int) []byte {
	bits := make([]byte, d)
	for i := range bits {
		if len(raw) > 0 {
			bits[i] = raw[(i/8)%len(raw)] >> (uint(i) % 8) & 1
		}
	}
	return bits
}

// FuzzNearestAgainstReference cross-checks Slab.Nearest on both
// kernels against the golden model's AM (hdref.RefAM: a per-bit
// Hamming argmin, ties to the lowest index). The fuzzer picks the
// dimension, the row count (1–40, so every partial last block occurs),
// the bytes of a seed row and of the query, and an rng seed. Every row
// is the seed row with a few bits flipped, or a copy of an earlier row,
// so duplicates occur within and across blocks; an even seed replaces
// the query by a near one, so the scan drops blocks at every step.
func FuzzNearestAgainstReference(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, []byte{0x0f}, uint16(13), uint8(3), int64(1))
	f.Add([]byte{0xaa, 0x55, 0x00}, []byte{0xaa, 0x54}, uint16(9999), uint8(40), int64(2))
	f.Add([]byte{0x12, 0x34}, []byte{0x12, 0x35}, uint16(1025), uint8(17), int64(3))
	f.Fuzz(func(t *testing.T, rawQ, rawRow []byte, dRaw uint16, nRaw uint8, seed int64) {
		d := int(dRaw)%10000 + 1
		n := int(nRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		base := unpackRaw(rawRow, d)
		q := unpackRaw(rawQ, d)
		if seed%2 == 0 {
			// A near query: the seed row with a few bits flipped.
			q = append([]byte(nil), base...)
			for k := rng.Intn(d/64 + 2); k > 0; k-- {
				q[rng.Intn(d)] ^= 1
			}
		}
		ref := hdref.RefAM{}
		rows := make([]Vector, n)
		for i := range rows {
			row := append([]byte(nil), base...)
			if i > 0 && rng.Intn(3) == 0 {
				row = ref.Prototypes[rng.Intn(i)]
			} else {
				for k := rng.Intn(2 * (d/64 + 1)); k > 0; k-- {
					row[rng.Intn(d)] ^= 1
				}
			}
			rows[i] = FromBits(row)
			ref.Labels = append(ref.Labels, strconv.Itoa(i))
			ref.Prototypes = append(ref.Prototypes, row)
		}
		s := NewSlab(d, rows)
		wantLabel, wantDist := ref.Classify(q)
		query := FromBits(q)
		forEachHammingKernel(t, func(t *testing.T) {
			if idx, dist := s.Nearest(query); strconv.Itoa(idx) != wantLabel || dist != wantDist {
				t.Fatalf("d=%d rows=%d: Nearest=(%d,%d), reference (%s,%d)", d, n, idx, dist, wantLabel, wantDist)
			}
		})
	})
}

// FuzzSlabPublishAgainstReference drives the bounds upkeep: the
// fuzzer's op bytes write a multi-block slab through appends, With and
// WithBundle into block 0 and into later blocks, at dimensions 1–6,000
// and 10,000. A new row is the seed row with a few bits flipped, a row
// already held with a few bits flipped, or a copy of one, so the
// bounds rule blocks out, later rows sit near rewritten block-0 rows,
// and ties occur across blocks. After each write the bounds must equal
// their recomputation (checkBounds). At the end Nearest, on both
// kernels, must answer as hdref.RefAM does for a query a few bits from
// every row and a random one, and leave unread every row the bounds
// rule out for it (checkSkips).
func FuzzSlabPublishAgainstReference(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x12, 0x27, 0x33}, []byte{0xaa, 0x55}, uint16(999), uint8(9), int64(1))
	f.Add([]byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80}, []byte{0x12, 0x34}, uint16(0), uint8(20), int64(2))
	f.Add([]byte{0x06, 0x0e, 0x16, 0x1e, 0x26, 0x2e}, []byte{0xf0}, uint16(4097), uint8(30), int64(3))
	// A bundle written into block 0, and a query where only its drift
	// keeps the scan from skipping the block that holds the answer.
	f.Add([]byte{0x32}, []byte{0x30}, uint16(999), uint8(9), int64(1))
	f.Fuzz(func(t *testing.T, ops, rawRow []byte, dRaw uint16, nRaw uint8, seed int64) {
		d := int(dRaw)%6000 + 1
		if dRaw%8 == 0 {
			d = 10000
		}
		if len(ops) > 32 {
			ops = ops[:32]
		}
		base := FromBits(unpackRaw(rawRow, d))
		rng := rand.New(rand.NewSource(seed))
		var rows []Vector
		newRow := func() Vector {
			switch r := rng.Intn(4); {
			case r == 0 && len(rows) > 0:
				return rows[rng.Intn(len(rows))].Clone()
			case r == 1 && len(rows) > 0:
				return rows[rng.Intn(len(rows))].Clone().FlipBits(rng.Intn(d/64+2), rng)
			}
			return base.Clone().FlipBits(rng.Intn(d/32+2), rng)
		}
		for n := blockLanes + 1 + int(nRaw)%24; len(rows) < n; {
			rows = append(rows, newRow())
		}
		initial, anchor := slices.Clone(rows), slices.Clone(rows[:blockLanes])
		type write struct {
			i    int
			v    Vector
			bd   *Bundler
			seed int64
		}
		var writes []write
		for _, op := range ops {
			// Bits 0–1 pick the write, bit 2 block 0 or a later block,
			// and the rest the row within it.
			w := write{i: len(rows)}
			if op&3 != 0 {
				w.i = int(op>>3) % blockLanes
				if op&4 != 0 {
					w.i = blockLanes + int(op>>3)%(len(rows)-blockLanes)
				}
			}
			if op&3 == 2 {
				w.bd = NewBundler(d)
				for k := 1 + rng.Intn(3); k > 0; k-- {
					w.bd.Add(newRow())
				}
				w.seed = int64(op)
				w.v = w.bd.Vector(rand.New(rand.NewSource(w.seed)))
			} else {
				w.v = newRow()
			}
			if w.i == len(rows) {
				rows = append(rows, w.v)
			} else {
				rows[w.i] = w.v
			}
			writes = append(writes, w)
		}
		ref := hdref.RefAM{}
		for i, r := range rows {
			ref.Labels = append(ref.Labels, strconv.Itoa(i))
			ref.Prototypes = append(ref.Prototypes, r.Bits())
		}
		queries := []Vector{NewRandom(d, rng)}
		for _, r := range rows {
			queries = append(queries, r.Clone().FlipBits(rng.Intn(d/64+2), rng))
		}
		want := make([][2]string, len(queries))
		for k, q := range queries {
			label, dist := ref.Classify(q.Bits())
			want[k] = [2]string{label, strconv.Itoa(dist)}
		}
		forEachHammingKernel(t, func(t *testing.T) {
			s := NewSlab(d, initial)
			checkBounds(t, s, anchor)
			for _, w := range writes {
				if w.bd != nil {
					s = s.WithBundle(w.i, w.bd, rand.New(rand.NewSource(w.seed)))
				} else {
					s = s.With(w.i, w.v)
				}
				checkBounds(t, s, anchor)
			}
			for k, q := range queries {
				if idx, dist := s.Nearest(q); [2]string{strconv.Itoa(idx), strconv.Itoa(dist)} != want[k] {
					t.Fatalf("d=%d rows=%d: Nearest=(%d,%d), reference %v", d, len(rows), idx, dist, want[k])
				}
				checkSkips(t, s, q)
			}
		})
	})
}
