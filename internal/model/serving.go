package model

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"pulphd/internal/hdc"
	"pulphd/internal/hv"
)

// This file is the snapshot format of a serving model. A version-3
// snapshot (magic PULPHD03) carries the configuration, the published
// generation id, the labels and prototypes and, per learnable class,
// the exact bit-sliced count accumulator — so a restart restores not
// just the prototypes but the online-learning state, and replaying
// the write-ahead-log tail on top publishes byte-identical generations
// (the registry's crash-recovery invariant). The framing is
// little-endian binary, magic header, CRC-32 trailer over everything
// between.

// magicV3 identifies a serving-state snapshot.
var magicV3 = [8]byte{'P', 'U', 'L', 'P', 'H', 'D', '0', '3'}

// maxAccumPlanes bounds the count-accumulator plane stack a snapshot
// may declare: 48 planes is ~2.8e14 Learn calls on one class, far past
// anything real, and it keeps a hostile length field from asking for
// terabytes.
const maxAccumPlanes = 48

// SaveServing writes a serving model's complete learner state
// (configuration, generation id, labels, prototypes, learnable-class
// accumulators) to w in snapshot version 3: EncodeServing, then one
// Write after the learner lock is released.
//
// walSeq is the checkpoint sequence number: the WAL sequence the next
// logged record will carry at the moment the snapshot was cut. Replay
// skips records numbered below it, which is what makes the
// (snapshot, WAL) pair crash-consistent — if the process dies after
// the snapshot renames into place but before the WAL truncates, the
// stale records all carry sequences below walSeq and are not applied
// twice. Callers persisting a model outside a WAL pairing pass 0.
func SaveServing(w io.Writer, sv *hdc.Serving, walSeq uint64) error {
	snap, _, err := EncodeServing(sv, walSeq)
	if err != nil {
		return err
	}
	if _, err := w.Write(snap); err != nil {
		return fmt.Errorf("model: write snapshot: %w", err)
	}
	return nil
}

// EncodeServing returns sv's version-3 snapshot (see SaveServing) and
// the generation it was cut at. The cut is consistent: the state is
// read under the learner lock (hdc.Serving.ReadState), so the bytes
// describe exactly the returned generation. The lock is held only
// while the live state is copied into one exactly sized buffer (each
// plane word once, each prototype through one reused row), and the
// CRC is computed after it is released.
func EncodeServing(sv *hdc.Serving, walSeq uint64) (snap []byte, generation uint64, err error) {
	cfg := sv.Config()
	row := hv.New(cfg.D) // one prototype at a time, read out of the slab
	sv.ReadState(func(st hdc.ServingState) {
		generation = st.Generation
		snap, err = appendServing(make([]byte, 0, servingSize(cfg, st)), cfg, st, walSeq, row)
	})
	if err != nil {
		return nil, 0, err
	}
	snap = binary.LittleEndian.AppendUint32(snap, crc32.ChecksumIEEE(snap[len(magicV3):]))
	return snap, generation, nil
}

// servingSize returns the encoded length of st, CRC trailer included.
func servingSize(cfg hdc.Config, st hdc.ServingState) int {
	size := len(magicV3) + servingHeadLen + 4
	for i, label := range st.Labels {
		size += 4 + len(label) + 4*hv.WordsFor(cfg.D) + 1
		if b := st.Accums[i]; b != nil {
			_, planes := b.State()
			size += 8 + 4
			for _, plane := range planes {
				size += 8 * len(plane)
			}
		}
	}
	return size
}

// appendServing appends st's snapshot body, magic first, CRC trailer
// not included, to buf; row is scratch of the model's dimension.
func appendServing(buf []byte, cfg hdc.Config, st hdc.ServingState, walSeq uint64, row hv.Vector) ([]byte, error) {
	le := binary.LittleEndian
	buf = append(buf, magicV3[:]...)
	for _, v := range [servingHeadLen / 8]uint64{
		uint64(cfg.D),
		uint64(cfg.Channels),
		uint64(cfg.Levels),
		math.Float64bits(cfg.MinLevel),
		math.Float64bits(cfg.MaxLevel),
		uint64(cfg.NGram),
		uint64(cfg.Window),
		uint64(cfg.Seed),
		uint64(len(st.Labels)),
		uint64(cfg.Backend),
		st.Generation,
		walSeq,
	} {
		buf = le.AppendUint64(buf, v)
	}
	for i, label := range st.Labels {
		if len(label) > maxLabelLen {
			return nil, fmt.Errorf("model: label %q exceeds %d bytes", label, maxLabelLen)
		}
		buf = le.AppendUint32(buf, uint32(len(label)))
		buf = append(buf, label...)
		st.Prototypes.RowTo(row, i)
		for _, w := range row.Words() {
			buf = le.AppendUint32(buf, w)
		}
		b := st.Accums[i]
		if b == nil {
			buf = append(buf, 0)
			continue
		}
		n, planes := b.State()
		buf = append(buf, 1)
		buf = le.AppendUint64(buf, uint64(n))
		buf = le.AppendUint32(buf, uint32(len(planes)))
		for _, plane := range planes {
			for _, x := range plane {
				buf = le.AppendUint64(buf, x)
			}
		}
	}
	return buf, nil
}

// ServingMeta is the cheap-to-read head of a serving snapshot: the
// model configuration, the generation it was taken at, and its class
// count. ReadServingMeta stops after the head, so it does not verify
// the CRC trailer — it is a peek for listings and readiness, not a
// validated load.
type ServingMeta struct {
	Config     hdc.Config
	Generation uint64
	Classes    int
	// WALSeq is the checkpoint sequence number the snapshot was cut at;
	// WAL records numbered below it are already folded into this state.
	WALSeq uint64
}

// ReadServingMeta reads just the snapshot head from r.
func ReadServingMeta(r io.Reader) (ServingMeta, error) {
	var p [len(magicV3) + servingHeadLen]byte
	if _, err := io.ReadFull(r, p[:len(magicV3)]); err != nil {
		return ServingMeta{}, fmt.Errorf("model: read header: %w", err)
	}
	if got := [8]byte(p[:len(magicV3)]); got != magicV3 {
		return ServingMeta{}, fmt.Errorf("model: bad magic %q (want %q)", got, magicV3)
	}
	if _, err := io.ReadFull(r, p[len(magicV3):]); err != nil {
		return ServingMeta{}, fmt.Errorf("model: read config: %w", err)
	}
	return parseServingHead(p[len(magicV3):])
}

// LoadServing reads a snapshot written by SaveServing and rebuilds the
// serving model: generation id, labels, prototypes and learnable-class
// accumulators exactly as exported, item memories regenerated from the
// stored seed. The second return is the snapshot's checkpoint WAL
// sequence (see SaveServing). Corrupt input — bad magic, implausible
// geometry, a truncated stream, a CRC mismatch — comes back as an
// error, never a panic.
//
// The body is read in chunks through one reused buffer and decoded in
// one pass: each prototype straight into the model's slab, each
// class's count planes into one array the class's accumulator adopts.
// Nothing is allocated before the field that sizes it is validated,
// and nothing more than one class's planes ahead of the bytes read.
func LoadServing(r io.Reader) (*hdc.Serving, uint64, error) {
	d := &decoder{r: r, buf: make([]byte, decodeChunk)}
	p, err := d.take(len(magicV3))
	if err != nil {
		return nil, 0, fmt.Errorf("model: read header: %w", err)
	}
	if got := [8]byte(p); got != magicV3 {
		return nil, 0, fmt.Errorf("model: bad magic %q (want %q)", got, magicV3)
	}
	d.crc = 0 // the CRC covers everything after the magic
	if p, err = d.take(servingHeadLen); err != nil {
		return nil, 0, fmt.Errorf("model: read config: %w", err)
	}
	meta, err := parseServingHead(p)
	if err != nil {
		return nil, 0, err
	}
	cfg := meta.Config
	if cfg.D < 1 {
		return nil, 0, fmt.Errorf("model: dimension %d not positive", cfg.D)
	}
	nw64 := (hv.WordsFor(cfg.D) + 1) / 2
	st := hdc.ServingState{Generation: meta.Generation}
	protos := hv.NewSlabBuilder(cfg.D)
	row := make([]uint32, hv.WordsFor(cfg.D))
	for i := 0; i < meta.Classes; i++ {
		if p, err = d.take(4); err != nil {
			return nil, 0, fmt.Errorf("model: read label %d: %w", i, err)
		}
		n := binary.LittleEndian.Uint32(p)
		if n > maxLabelLen {
			return nil, 0, fmt.Errorf("model: label %d length %d exceeds %d", i, n, maxLabelLen)
		}
		if p, err = d.take(int(n)); err != nil {
			return nil, 0, fmt.Errorf("model: read label %d: %w", i, err)
		}
		label := string(p)
		if err := d.uint32s(row); err != nil {
			return nil, 0, fmt.Errorf("model: read prototype %q: %w", label, err)
		}
		if err := protos.AddWords(row); err != nil {
			return nil, 0, fmt.Errorf("model: prototype %q: %w", label, err)
		}
		if p, err = d.take(1); err != nil {
			return nil, 0, fmt.Errorf("model: read class %q: %w", label, err)
		}
		var acc *hv.Bundler
		switch p[0] {
		case 0:
		case 1:
			if acc, err = d.accumulator(cfg.D, nw64, label); err != nil {
				return nil, 0, err
			}
		default:
			return nil, 0, fmt.Errorf("model: class %q has learnable flag %d", label, p[0])
		}
		st.Labels = append(st.Labels, label)
		st.Accums = append(st.Accums, acc)
	}
	want := d.crc
	if p, err = d.take(4); err != nil {
		return nil, 0, fmt.Errorf("model: read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(p); got != want {
		return nil, 0, fmt.Errorf("model: checksum mismatch: stored %08x, computed %08x", got, want)
	}
	st.Prototypes = protos.Build()
	sv, err := hdc.NewServingFromState(cfg, st)
	if err != nil {
		return nil, 0, fmt.Errorf("model: snapshot state invalid: %w", err)
	}
	return sv, meta.WALSeq, nil
}

// servingHeadLen is the byte length of the version-3 head after the
// magic: twelve little-endian uint64 fields.
const servingHeadLen = 12 * 8

// decodeChunk is the decoder's buffer: every read of a snapshot body
// goes through it, a chunk at a time.
const decodeChunk = 4096

// decoder reads a snapshot through one reused buffer, folding every
// byte it hands out into a running CRC-32 (IEEE).
type decoder struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read from r but not yet taken
	crc      uint32
}

// take returns the next n bytes (n ≤ decodeChunk), reading from r as
// needed. They stay valid until the next take.
func (d *decoder) take(n int) ([]byte, error) {
	if d.end-d.off < n {
		d.end = copy(d.buf, d.buf[d.off:d.end])
		d.off = 0
		m, err := io.ReadAtLeast(d.r, d.buf[d.end:], n-d.end)
		d.end += m
		if err != nil {
			return nil, err
		}
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	return p, nil
}

// uint32s fills dst with little-endian words.
func (d *decoder) uint32s(dst []uint32) error {
	for len(dst) > 0 {
		k := min(len(dst), decodeChunk/4)
		p, err := d.take(4 * k)
		if err != nil {
			return err
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint32(p[4*i:])
		}
		dst = dst[k:]
	}
	return nil
}

// uint64s fills dst with little-endian words.
func (d *decoder) uint64s(dst []uint64) error {
	for len(dst) > 0 {
		k := min(len(dst), decodeChunk/8)
		p, err := d.take(8 * k)
		if err != nil {
			return err
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
		dst = dst[k:]
	}
	return nil
}

// accumulator decodes a learnable class's count and planes. The plane
// count is checked against maxAccumPlanes and the count's bit length
// before anything is allocated; the planes then decode into one array
// of exactly planes×nw64 words, which the returned bundler adopts.
func (d *decoder) accumulator(dim, nw64 int, label string) (*hv.Bundler, error) {
	p, err := d.take(8 + 4)
	if err != nil {
		return nil, fmt.Errorf("model: read accumulator %q: %w", label, err)
	}
	count := binary.LittleEndian.Uint64(p)
	planes := binary.LittleEndian.Uint32(p[8:])
	if planes > maxAccumPlanes {
		return nil, fmt.Errorf("model: accumulator %q declares %d planes (max %d)", label, planes, maxAccumPlanes)
	}
	if count > 1<<maxAccumPlanes || int(planes) != bits.Len64(count) {
		return nil, fmt.Errorf("model: accumulator %q has %d planes for count %d", label, planes, count)
	}
	words := make([]uint64, int(planes)*nw64)
	if err := d.uint64s(words); err != nil {
		return nil, fmt.Errorf("model: read accumulator %q planes: %w", label, err)
	}
	stack := make([][]uint64, planes)
	for i := range stack {
		stack[i] = words[i*nw64 : (i+1)*nw64 : (i+1)*nw64]
	}
	b, err := hv.NewBundlerFromState(dim, int(count), stack)
	if err != nil {
		return nil, fmt.Errorf("model: accumulator %q: %w", label, err)
	}
	return b, nil
}

// parseServingHead decodes and bounds-checks the version-3 head, the
// servingHeadLen bytes after the magic.
func parseServingHead(p []byte) (ServingMeta, error) {
	var head [servingHeadLen / 8]uint64
	for i := range head {
		head[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	m := ServingMeta{
		Config: hdc.Config{
			D:        int(head[0]),
			Channels: int(head[1]),
			Levels:   int(head[2]),
			MinLevel: math.Float64frombits(head[3]),
			MaxLevel: math.Float64frombits(head[4]),
			NGram:    int(head[5]),
			Window:   int(head[6]),
			Seed:     int64(head[7]),
		},
		Classes:    int(head[8]),
		Generation: head[10],
		WALSeq:     head[11],
	}
	if head[9] > uint64(hdc.BackendRemat) {
		return ServingMeta{}, fmt.Errorf("model: unknown item-memory backend %d", head[9])
	}
	m.Config.Backend = hdc.Backend(head[9])
	switch {
	case m.Config.D < 0 || m.Config.D > maxDimension,
		m.Classes < 0 || m.Classes > maxClasses,
		m.Config.Channels < 0 || m.Config.Channels > maxChannels,
		m.Config.Levels < 0 || m.Config.Levels > maxLevels,
		m.Config.NGram < 0 || m.Config.NGram > maxNGram,
		m.Config.Window < 0 || m.Config.Window > maxWindow:
		return ServingMeta{}, fmt.Errorf("model: implausible geometry (D=%d, classes=%d, channels=%d, levels=%d, N=%d, window=%d)",
			m.Config.D, m.Classes, m.Config.Channels, m.Config.Levels, m.Config.NGram, m.Config.Window)
	}
	return m, nil
}
