package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"pulphd/internal/obs"
)

// This file is the write-ahead log of the model registry. Every online
// Learn/Correct against a persistent model is framed, checksummed and
// appended here BEFORE it is applied, so a restart replays the WAL
// tail onto the latest snapshot and warm-starts instead of retraining
// — the durability half of the paper's "the AM matrix can be
// continuously updated for on-line learning" (§3) once one process
// serves many long-lived tenant models.
//
// Frame layout (little-endian):
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// Payload:
//
//	u64 seq | u8 op | u16 label length | label bytes |
//	u32 rows | u32 cols | rows×cols f64 window values
//
// Recovery reads the longest valid prefix: a short frame, an
// implausible length, or a CRC mismatch ends replay at the last good
// record — a torn tail from a mid-append crash loses at most the
// records the process never acknowledged, and corrupt bytes can stop
// replay but never panic it or smuggle a half-record into the model.
// An append that fails while the process lives is undone at once (the
// file is truncated back to its acknowledged frames), so no later
// acknowledged record lands behind a torn or unacknowledged frame.

// Op is the kind of one WAL record.
type Op uint8

// The record kinds. Correct is a Learn that arrived as an online
// correction (predict-then-learn feedback); both replay identically —
// the distinction feeds the drift monitors, which are process-local
// and not replayed.
const (
	OpLearn Op = iota + 1
	OpCorrect
)

// String returns the op's wire name.
func (o Op) String() string {
	switch o {
	case OpLearn:
		return "learn"
	case OpCorrect:
		return "correct"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Record is one durable online-learning event.
type Record struct {
	Seq    uint64
	Op     Op
	Label  string
	Window [][]float64
}

// Limits guarding the decoder against hostile or corrupt frames. The
// payload bound implies every other field fits; the row/col bounds
// mirror internal/model's geometry limits.
const (
	maxWALLabelLen = 256
	maxWALRows     = 1 << 16
	maxWALCols     = 1 << 12
	maxWALPayload  = 1 << 26 // 64 MiB: > maxWALRows·maxWALCols is impossible anyway per-frame
)

// frameHeaderLen is the fixed byte cost of one frame before its
// payload: length + CRC.
const frameHeaderLen = 8

// AppendRecord appends the framed encoding of rec to buf and returns
// the extended slice. It never fails: the encoder owns the format, so
// any Record whose label and window respect the package limits frames
// losslessly (EncodeRecord's caller validates those limits — the
// registry does before logging).
func AppendRecord(buf []byte, rec Record) []byte {
	payloadLen := 8 + 1 + 2 + len(rec.Label) + 4 + 4
	for _, row := range rec.Window {
		payloadLen += 8 * len(row)
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderLen+payloadLen)...)
	p := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint64(p[0:], rec.Seq)
	p[8] = byte(rec.Op)
	binary.LittleEndian.PutUint16(p[9:], uint16(len(rec.Label)))
	off := 11 + copy(p[11:], rec.Label)
	rows := len(rec.Window)
	cols := 0
	if rows > 0 {
		cols = len(rec.Window[0])
	}
	binary.LittleEndian.PutUint32(p[off:], uint32(rows))
	binary.LittleEndian.PutUint32(p[off+4:], uint32(cols))
	off += 8
	for _, row := range rec.Window {
		for _, v := range row {
			binary.LittleEndian.PutUint64(p[off:], math.Float64bits(v))
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(p[:payloadLen]))
	return buf
}

// DecodeRecord decodes one frame from the front of data, returning the
// record and the total frame size consumed. Any defect — short data,
// implausible lengths, a CRC mismatch, a ragged window — is an error;
// the decoder never panics and never reads past the frame it sized.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) < frameHeaderLen {
		return Record{}, 0, fmt.Errorf("registry: wal frame header short: %d bytes", len(data))
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[0:]))
	wantCRC := binary.LittleEndian.Uint32(data[4:])
	if payloadLen < 19 || payloadLen > maxWALPayload {
		return Record{}, 0, fmt.Errorf("registry: wal payload length %d implausible", payloadLen)
	}
	if len(data) < frameHeaderLen+payloadLen {
		return Record{}, 0, fmt.Errorf("registry: wal frame torn: have %d of %d payload bytes", len(data)-frameHeaderLen, payloadLen)
	}
	p := data[frameHeaderLen : frameHeaderLen+payloadLen]
	if crc32.ChecksumIEEE(p) != wantCRC {
		return Record{}, 0, fmt.Errorf("registry: wal frame CRC mismatch")
	}
	rec := Record{Seq: binary.LittleEndian.Uint64(p[0:]), Op: Op(p[8])}
	if rec.Op != OpLearn && rec.Op != OpCorrect {
		return Record{}, 0, fmt.Errorf("registry: wal record op %d unknown", p[8])
	}
	labelLen := int(binary.LittleEndian.Uint16(p[9:]))
	if labelLen == 0 || labelLen > maxWALLabelLen {
		return Record{}, 0, fmt.Errorf("registry: wal label length %d out of range", labelLen)
	}
	if len(p) < 11+labelLen+8 {
		return Record{}, 0, fmt.Errorf("registry: wal payload short for label")
	}
	rec.Label = string(p[11 : 11+labelLen])
	off := 11 + labelLen
	rows := int(binary.LittleEndian.Uint32(p[off:]))
	cols := int(binary.LittleEndian.Uint32(p[off+4:]))
	off += 8
	if rows < 1 || rows > maxWALRows || cols < 1 || cols > maxWALCols {
		return Record{}, 0, fmt.Errorf("registry: wal window %d×%d out of range", rows, cols)
	}
	if payloadLen != off+8*rows*cols {
		return Record{}, 0, fmt.Errorf("registry: wal payload %d bytes, want %d for %d×%d window", payloadLen, off+8*rows*cols, rows, cols)
	}
	rec.Window = make([][]float64, rows)
	vals := make([]float64, rows*cols)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off+8*i:]))
	}
	for r := range rec.Window {
		rec.Window[r] = vals[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return rec, frameHeaderLen + payloadLen, nil
}

// DecodeAll decodes the longest valid prefix of data, returning the
// records, how many bytes of valid frames they spanned, and the defect
// that ended the scan (nil when data was consumed exactly). This is
// the in-memory half of recovery; WAL.Replay wraps it with file I/O.
func DecodeAll(data []byte) (recs []Record, valid int, defect error) {
	for valid < len(data) {
		rec, n, err := DecodeRecord(data[valid:])
		if err != nil {
			return recs, valid, err
		}
		recs = append(recs, rec)
		valid += n
	}
	return recs, valid, nil
}

// walFile is what a WAL needs of its file. Production passes the
// *os.File OpenWAL opens; tests substitute one that fails on demand.
type walFile interface {
	Write([]byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is one model's append-only log. Append is not concurrency-safe;
// the registry serializes it under the entry's learner lock.
type WAL struct {
	f    walFile
	path string
	// size is the byte length of the acknowledged frames: where a failed
	// append truncates the file back to.
	size int64
	// seq numbers the next record; records carry strictly increasing
	// sequence numbers so replay can cross-check its position.
	seq uint64
	// records counts frames appended since open/truncate — the
	// snapshot-cadence input.
	records int
	// sync forces an fsync per append: full single-record durability
	// against power loss, at a large per-learn latency cost. Off, an
	// OS crash can lose the page-cache tail; a process kill -9 cannot.
	sync bool
	buf  []byte
	// broken, once set, is the error every Append returns: a failed
	// append whose truncate failed too may have left a frame behind.
	broken error
}

// OpenWAL opens (creating if missing) the log at path for appending.
// The caller supplies the sequence number the next record should carry
// (recovery: last replayed seq + 1; fresh model: 1) and how many
// records the existing file already holds.
func OpenWAL(path string, nextSeq uint64, records int, sync bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("registry: opening wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("registry: opening wal: %w", err)
	}
	return &WAL{f: f, path: path, size: st.Size(), seq: nextSeq, records: records, sync: sync}, nil
}

// Append frames one record (assigning it the next sequence number) and
// writes it to the log, fsyncing when the WAL is in sync mode. The
// record is durable in the OS when Append returns — a kill -9 after
// Append replays it, so the caller must Append before applying the
// learn it acknowledges. A wal.append span on sp (nil: none) wraps the
// frame-and-write, a nested wal.fsync span times the fsync in sync
// mode, and the fsync duration comes back (0 when sync is off) so the
// registry can feed its latency histogram. A failed write or fsync is
// undone before Append returns: the file is truncated back to its
// acknowledged frames, and the sequence number stays unused. If that
// truncate fails too, the WAL refuses every later append; the next
// fault-in or Open replays the log and truncates a torn tail.
func (w *WAL) Append(sp *obs.Spans, op Op, label string, window [][]float64) (time.Duration, error) {
	if w.broken != nil {
		return 0, w.broken
	}
	rec := Record{Seq: w.seq, Op: op, Label: label, Window: window}
	ap := sp.Start("wal.append", sp.Parent())
	sp.Annotate(ap, "seq", int64(w.seq))
	w.buf = AppendRecord(w.buf[:0], rec)
	sp.Annotate(ap, "bytes", int64(len(w.buf)))
	if _, err := w.f.Write(w.buf); err != nil {
		sp.End(ap)
		return 0, w.undo(fmt.Errorf("registry: appending wal record: %w", err))
	}
	var fsync time.Duration
	if w.sync {
		fs := sp.Start("wal.fsync", ap)
		start := time.Now()
		err := w.f.Sync()
		fsync = time.Since(start)
		sp.End(fs)
		if err != nil {
			sp.End(ap)
			return fsync, w.undo(fmt.Errorf("registry: syncing wal: %w", err))
		}
	}
	sp.End(ap)
	w.seq++
	w.records++
	w.size += int64(len(w.buf))
	return fsync, nil
}

// undo truncates the log back to its acknowledged frames after the
// append that failed with err, and returns err. When the truncate
// fails as well, the WAL is broken from then on.
func (w *WAL) undo(err error) error {
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = fmt.Errorf("registry: wal refuses appends after a failed append it could not undo: %w", terr)
		return errors.Join(err, w.broken)
	}
	return err
}

// Records returns how many records the log currently holds.
func (w *WAL) Records() int { return w.records }

// NextSeq returns the sequence number the next Append will assign.
func (w *WAL) NextSeq() uint64 { return w.seq }

// Reset truncates the log to empty — called right after a snapshot
// lands, so the (snapshot, WAL tail) pair stays minimal. The sequence
// numbering continues; only the file restarts.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("registry: truncating wal: %w", err)
	}
	// O_APPEND writes land at the (now zero) end regardless of the file
	// offset, so no Seek is needed.
	w.records = 0
	w.size = 0
	return nil
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

// ReplayWAL reads the log at path and returns the longest valid record
// prefix. A missing file is an empty log. When the file carries a torn
// or corrupt tail, the tail is truncated away on disk (so the next
// append never splices new frames after garbage) and the valid prefix
// is returned — recovery proceeds with every acknowledged record that
// survived, which is exactly the crash-consistency contract.
func ReplayWAL(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: reading wal: %w", err)
	}
	recs, valid, defect := DecodeAll(data)
	if defect != nil && valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("registry: truncating torn wal tail: %w", err)
		}
	}
	return recs, nil
}
