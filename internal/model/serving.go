package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"pulphd/internal/hdc"
	"pulphd/internal/hv"
)

// This file extends the deployment snapshot format to serving models.
// A version-3 snapshot (magic PULPHD03) carries what a Classifier
// snapshot (PULPHD02) cannot: the published generation id and, per
// learnable class, the exact bit-sliced count accumulator — so a
// restart restores not just the prototypes but the online-learning
// state, and replaying the write-ahead-log tail on top publishes
// byte-identical generations (the registry's crash-recovery
// invariant). The framing is the same as version 2: little-endian
// binary, magic header, CRC-32 trailer over everything between.

// magicV3 identifies a serving-state snapshot.
var magicV3 = [8]byte{'P', 'U', 'L', 'P', 'H', 'D', '0', '3'}

// maxAccumPlanes bounds the count-accumulator plane stack a snapshot
// may declare: 48 planes is ~2.8e14 Learn calls on one class, far past
// anything real, and it keeps a hostile length field from asking for
// terabytes.
const maxAccumPlanes = 48

// SaveServing writes a serving model's complete learner state
// (configuration, generation id, labels, prototypes, learnable-class
// accumulators) to w in snapshot version 3.
//
// walSeq is the checkpoint sequence number: the WAL sequence the next
// logged record will carry at the moment the snapshot was cut. Replay
// skips records numbered below it, which is what makes the
// (snapshot, WAL) pair crash-consistent — if the process dies after
// the snapshot renames into place but before the WAL truncates, the
// stale records all carry sequences below walSeq and are not applied
// twice. Callers persisting a model outside a WAL pairing pass 0.
func SaveServing(w io.Writer, sv *hdc.Serving, walSeq uint64) error {
	return SaveServingState(w, sv.Config(), sv.State(), walSeq)
}

// SaveServingState writes an already-cut serving state. Callers that
// need to know exactly which generation went over the wire (the
// replication exporter) take the State() cut themselves, read
// st.Generation, and serialize the same cut here — calling SaveServing
// directly would race a concurrent Learn between reading the
// generation and cutting the state.
func SaveServingState(w io.Writer, cfg hdc.Config, st hdc.ServingState, walSeq uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV3[:]); err != nil {
		return fmt.Errorf("model: write header: %w", err)
	}
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}
	head := []uint64{
		uint64(cfg.D),
		uint64(cfg.Channels),
		uint64(cfg.Levels),
		math.Float64bits(cfg.MinLevel),
		math.Float64bits(cfg.MaxLevel),
		uint64(cfg.NGram),
		uint64(cfg.Window),
		uint64(cfg.Seed),
		uint64(len(st.Classes)),
		uint64(cfg.Backend),
		st.Generation,
		walSeq,
	}
	for _, v := range head {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("model: write config: %w", err)
		}
	}
	for _, cs := range st.Classes {
		if len(cs.Label) > maxLabelLen {
			return fmt.Errorf("model: label %q exceeds %d bytes", cs.Label, maxLabelLen)
		}
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(cs.Label))); err != nil {
			return fmt.Errorf("model: write label: %w", err)
		}
		if _, err := io.WriteString(cw, cs.Label); err != nil {
			return fmt.Errorf("model: write label: %w", err)
		}
		if err := binary.Write(cw, binary.LittleEndian, cs.Prototype.Words()); err != nil {
			return fmt.Errorf("model: write prototype %q: %w", cs.Label, err)
		}
		learnable := uint8(0)
		if cs.Learnable {
			learnable = 1
		}
		if err := binary.Write(cw, binary.LittleEndian, learnable); err != nil {
			return fmt.Errorf("model: write class %q: %w", cs.Label, err)
		}
		if !cs.Learnable {
			continue
		}
		if err := binary.Write(cw, binary.LittleEndian, uint64(cs.AccumCount)); err != nil {
			return fmt.Errorf("model: write accumulator %q: %w", cs.Label, err)
		}
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(cs.AccumPlanes))); err != nil {
			return fmt.Errorf("model: write accumulator %q: %w", cs.Label, err)
		}
		for _, plane := range cs.AccumPlanes {
			if err := binary.Write(cw, binary.LittleEndian, plane); err != nil {
				return fmt.Errorf("model: write accumulator %q: %w", cs.Label, err)
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, cw.crc.Sum32()); err != nil {
		return fmt.Errorf("model: write checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("model: flush: %w", err)
	}
	return nil
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
	br := bufio.NewReader(r)
	var gotMagic [8]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return ServingMeta{}, fmt.Errorf("model: read header: %w", err)
	}
	if gotMagic != magicV3 {
		return ServingMeta{}, fmt.Errorf("model: bad magic %q (want %q)", gotMagic, magicV3)
	}
	return readServingHeadBody(br)
}

// LoadServing reads a snapshot written by SaveServing and rebuilds the
// serving model: generation id, labels, prototypes and learnable-class
// accumulators exactly as exported, item memories regenerated from the
// stored seed. The second return is the snapshot's checkpoint WAL
// sequence (see SaveServing). Corrupt input — bad magic, implausible
// geometry, a truncated stream, a CRC mismatch — comes back as an
// error, never a panic.
func LoadServing(r io.Reader) (*hdc.Serving, uint64, error) {
	br := bufio.NewReader(r)
	var gotMagic [8]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return nil, 0, fmt.Errorf("model: read header: %w", err)
	}
	if gotMagic != magicV3 {
		return nil, 0, fmt.Errorf("model: bad magic %q (want %q)", gotMagic, magicV3)
	}
	cr := &crcReader{r: br, crc: crc32.NewIEEE()}
	meta, err := readServingHeadBody(cr)
	if err != nil {
		return nil, 0, err
	}
	cfg := meta.Config
	words := hv.WordsFor(cfg.D)
	nw64 := (words + 1) / 2
	st := hdc.ServingState{Generation: meta.Generation}
	for i := 0; i < meta.Classes; i++ {
		var n uint32
		if err := binary.Read(cr, binary.LittleEndian, &n); err != nil {
			return nil, 0, fmt.Errorf("model: read label %d: %w", i, err)
		}
		if n > maxLabelLen {
			return nil, 0, fmt.Errorf("model: label %d length %d exceeds %d", i, n, maxLabelLen)
		}
		label := make([]byte, n)
		if _, err := io.ReadFull(cr, label); err != nil {
			return nil, 0, fmt.Errorf("model: read label %d: %w", i, err)
		}
		buf := make([]uint32, words)
		if err := binary.Read(cr, binary.LittleEndian, buf); err != nil {
			return nil, 0, fmt.Errorf("model: read prototype %q: %w", label, err)
		}
		proto, err := hv.FromWords(cfg.D, buf)
		if err != nil {
			return nil, 0, fmt.Errorf("model: prototype %q: %w", label, err)
		}
		cs := hdc.ServingClassState{Label: string(label), Prototype: proto}
		var learnable uint8
		if err := binary.Read(cr, binary.LittleEndian, &learnable); err != nil {
			return nil, 0, fmt.Errorf("model: read class %q: %w", label, err)
		}
		if learnable > 1 {
			return nil, 0, fmt.Errorf("model: class %q has learnable flag %d", label, learnable)
		}
		if learnable == 1 {
			cs.Learnable = true
			var count uint64
			if err := binary.Read(cr, binary.LittleEndian, &count); err != nil {
				return nil, 0, fmt.Errorf("model: read accumulator %q: %w", label, err)
			}
			var planes uint32
			if err := binary.Read(cr, binary.LittleEndian, &planes); err != nil {
				return nil, 0, fmt.Errorf("model: read accumulator %q: %w", label, err)
			}
			if planes > maxAccumPlanes {
				return nil, 0, fmt.Errorf("model: accumulator %q declares %d planes (max %d)", label, planes, maxAccumPlanes)
			}
			// The plane count is the count's bit length by construction;
			// checking before allocating keeps a hostile (count, planes)
			// pair from both the allocation and the FromState error path.
			if count > 1<<maxAccumPlanes || int(planes) != bits.Len64(count) {
				return nil, 0, fmt.Errorf("model: accumulator %q has %d planes for count %d", label, planes, count)
			}
			cs.AccumCount = int(count)
			cs.AccumPlanes = make([][]uint64, planes)
			for p := range cs.AccumPlanes {
				plane := make([]uint64, nw64)
				if err := binary.Read(cr, binary.LittleEndian, plane); err != nil {
					return nil, 0, fmt.Errorf("model: read accumulator %q plane %d: %w", label, p, err)
				}
				cs.AccumPlanes[p] = plane
			}
		}
		st.Classes = append(st.Classes, cs)
	}
	want := cr.crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, 0, fmt.Errorf("model: read checksum: %w", err)
	}
	if got != want {
		return nil, 0, fmt.Errorf("model: checksum mismatch: stored %08x, computed %08x", got, want)
	}
	sv, err := hdc.NewServingFromState(cfg, st)
	if err != nil {
		return nil, 0, fmt.Errorf("model: snapshot state invalid: %w", err)
	}
	return sv, meta.WALSeq, nil
}

// readServingHeadBody is readServingHead minus the magic — for callers
// that already consumed it (LoadServing threads the CRC reader through
// everything after the magic).
func readServingHeadBody(r io.Reader) (ServingMeta, error) {
	head := make([]uint64, 12)
	for i := range head {
		if err := binary.Read(r, binary.LittleEndian, &head[i]); err != nil {
			return ServingMeta{}, fmt.Errorf("model: read config: %w", err)
		}
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
