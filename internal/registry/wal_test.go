package registry

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pulphd/internal/hdc"
)

// testRecord builds a small, valid record with distinguishable values.
func testRecord(seq uint64, op Op, label string, rows, cols int) Record {
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = float64(seq)*100 + float64(r*cols+c)
		}
	}
	return Record{Seq: seq, Op: op, Label: label, Window: w}
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []Record{
		testRecord(1, OpLearn, "fist", 1, 4),
		testRecord(2, OpCorrect, "rest", 3, 2),
		testRecord(1<<40, OpLearn, string(bytes.Repeat([]byte{'x'}, maxWALLabelLen)), 1, 1),
	}
	var buf []byte
	for _, rec := range recs {
		buf = AppendRecord(buf, rec)
	}
	got, valid, defect := DecodeAll(buf)
	if defect != nil {
		t.Fatalf("decoding clean log: %v", defect)
	}
	if valid != len(buf) {
		t.Fatalf("consumed %d of %d bytes", valid, len(buf))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestWALDecodeRejectsCorruption(t *testing.T) {
	frame := AppendRecord(nil, testRecord(7, OpLearn, "a", 2, 3))
	// Flipping any single byte must yield an error (CRC or framing),
	// never a silently different record and never a panic.
	for i := range frame {
		mutated := append([]byte(nil), frame...)
		mutated[i] ^= 0x40
		rec, _, err := DecodeRecord(mutated)
		if err == nil && reflect.DeepEqual(rec, testRecord(7, OpLearn, "a", 2, 3)) {
			t.Fatalf("byte %d flip decoded to the original record", i)
		}
		if err == nil {
			t.Fatalf("byte %d flip decoded without error", i)
		}
	}
	// Truncation at every boundary is an error, not a partial record.
	for n := 0; n < len(frame); n++ {
		if _, _, err := DecodeRecord(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, err := OpenWAL(path, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		testRecord(1, OpLearn, "fist", 1, 4),
		testRecord(2, OpCorrect, "rest", 1, 4),
		testRecord(3, OpLearn, "point", 1, 4),
	}
	for _, rec := range want {
		if _, err := w.Append(nil, rec.Op, rec.Label, rec.Window); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 3 || w.NextSeq() != 4 {
		t.Fatalf("records %d nextSeq %d, want 3 and 4", w.Records(), w.NextSeq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestWALReplayTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, err := OpenWAL(path, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := w.Append(nil, OpLearn, "g", testRecord(i, OpLearn, "g", 1, 4).Window); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := len(data) / 3
	// Tear the last frame mid-payload, as a crash mid-append would.
	torn := int64(2*frameLen + frameLen/2)
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}
	recs, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("torn replay returned %d records (%+v), want the 2-record prefix", len(recs), recs)
	}
	// The torn tail is gone on disk: the next append splices after
	// valid frames, and a second replay sees a clean log.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(2*frameLen) {
		t.Fatalf("torn tail not truncated: %d bytes on disk, want %d", st.Size(), 2*frameLen)
	}
}

func TestWALResetKeepsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, err := OpenWAL(path, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	win := testRecord(0, OpLearn, "g", 1, 4).Window
	for i := 0; i < 3; i++ {
		if _, err := w.Append(nil, OpLearn, "g", win); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Fatalf("records %d after reset", w.Records())
	}
	// Sequence numbering continues across the truncate — that is what
	// lets replay skip records a snapshot already folded in.
	if w.NextSeq() != 4 {
		t.Fatalf("nextSeq %d after reset, want 4", w.NextSeq())
	}
	if _, err := w.Append(nil, OpCorrect, "h", win); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 4 || recs[0].Op != OpCorrect {
		t.Fatalf("post-reset replay %+v, want one seq-4 correct record", recs)
	}
}

// faultyFile is a WAL file that fails on demand: the next write after
// shortWrite is set writes half its bytes and fails, the next sync
// after failSync fails after the write reached the file, and every
// truncate fails while failTruncate is set.
type faultyFile struct {
	walFile
	shortWrite, failSync, failTruncate bool
	writes                             int
}

func (f *faultyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.shortWrite {
		f.shortWrite = false
		n, _ := f.walFile.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	return f.walFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("injected fsync failure")
	}
	return f.walFile.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.walFile.Truncate(size)
}

// openFaultyWAL opens a fresh WAL at path whose file fails on demand.
func openFaultyWAL(t *testing.T, path string, sync bool) (*WAL, *faultyFile) {
	t.Helper()
	w, err := OpenWAL(path, 1, 0, sync)
	if err != nil {
		t.Fatal(err)
	}
	f := &faultyFile{walFile: w.f}
	w.f = f
	return w, f
}

// appendAcked appends rec and fails the test unless it is acknowledged.
func appendAcked(t *testing.T, w *WAL, rec Record) {
	t.Helper()
	if _, err := w.Append(nil, rec.Op, rec.Label, rec.Window); err != nil {
		t.Fatal(err)
	}
}

// replayEquals closes w and requires its replay to be exactly want.
func replayEquals(t *testing.T, w *WAL, path string, want []Record) {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay %+v, want exactly the acknowledged %+v", got, want)
	}
}

// TestWALShortWriteLeavesNothing: a write that reached the file only in
// part is truncated away before Append returns, so the next
// acknowledged record does not land behind a torn frame that would end
// replay before it.
func TestWALShortWriteLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, f := openFaultyWAL(t, path, false)
	a, b := testRecord(1, OpLearn, "a", 1, 4), testRecord(2, OpLearn, "b", 1, 4)
	appendAcked(t, w, a)
	f.shortWrite = true
	if _, err := w.Append(nil, OpLearn, "x", a.Window); err == nil {
		t.Fatal("short write acknowledged")
	}
	appendAcked(t, w, b)
	replayEquals(t, w, path, []Record{a, b})
}

// TestWALFailedFsyncLeavesNothing: a frame whose fsync failed was never
// acknowledged, so it is truncated away and its sequence number goes to
// the next acknowledged record; recovery cannot apply a learn the live
// model rejected, and the records it replays carry distinct sequences.
func TestWALFailedFsyncLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, f := openFaultyWAL(t, path, true)
	a, b := testRecord(1, OpLearn, "a", 1, 4), testRecord(2, OpCorrect, "b", 1, 4)
	appendAcked(t, w, a)
	f.failSync = true
	if _, err := w.Append(nil, OpLearn, "x", a.Window); err == nil {
		t.Fatal("failed fsync acknowledged")
	}
	appendAcked(t, w, b)
	replayEquals(t, w, path, []Record{a, b})
}

// TestWALFailedTruncateRefusesAppends: when a failed append cannot be
// undone, the WAL refuses every later append without writing, and
// replay drops the torn frame and returns exactly what was
// acknowledged.
func TestWALFailedTruncateRefusesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, f := openFaultyWAL(t, path, false)
	a := testRecord(1, OpLearn, "a", 1, 4)
	appendAcked(t, w, a)
	f.shortWrite, f.failTruncate = true, true
	if _, err := w.Append(nil, OpLearn, "x", a.Window); err == nil {
		t.Fatal("short write acknowledged")
	}
	f.failTruncate = false
	writes := f.writes
	for i := 0; i < 2; i++ {
		if _, err := w.Append(nil, OpLearn, "b", a.Window); err == nil {
			t.Fatal("append acknowledged after a failed append could not be undone")
		}
	}
	if f.writes != writes {
		t.Fatalf("refused appends wrote %d times", f.writes-writes)
	}
	replayEquals(t, w, path, []Record{a})
}

// TestLearnAfterUnrecoverableWALFailure drives the broken WAL through
// the registry: the learn whose append could not be undone fails as the
// registry's own error, not ErrInvalid; the model keeps serving its
// acknowledged state; every later learn is refused; and a restart
// after a kill -9 recovers exactly the acknowledged learns.
func TestLearnAfterUnrecoverableWALFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := testConfig(hdc.BackendStored)
	dir := t.TempDir()
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := hdc.NewServing(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("m", cfg); err != nil {
		t.Fatal(err)
	}
	w := randomWindow(cfg, rng)
	if err := r.Learn("m", "a", w); err != nil {
		t.Fatal(err)
	}
	if err := mirror.Learn("a", w); err != nil {
		t.Fatal(err)
	}
	e, err := r.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.wal.f = &faultyFile{walFile: e.wal.f, shortWrite: true, failTruncate: true}
	e.mu.Unlock()
	for i := 0; i < 2; i++ {
		err := r.Learn("m", "b", randomWindow(cfg, rng))
		if err == nil || errors.Is(err, ErrInvalid) {
			t.Fatalf("learn %d on a broken wal returned %v, want the registry's own error", i, err)
		}
		sv := mustServing(t, r, "m")
		if sv.Generation() != mirror.Generation() {
			t.Fatalf("serving generation %d after a failed learn, want %d", sv.Generation(), mirror.Generation())
		}
		if label, _ := sv.Predict(w); label != "a" {
			t.Fatalf("predict answered %q, want a", label)
		}
	}
	// kill -9: no Close; the half frame stays on disk.
	r2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !bytes.Equal(servingBytes(t, mustServing(t, r2, "m")), servingBytes(t, mirror)) {
		t.Fatal("restart did not recover exactly the acknowledged learns")
	}
}

func TestReplayWALMissingFileIsEmpty(t *testing.T) {
	recs, err := ReplayWAL(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || recs != nil {
		t.Fatalf("missing wal: recs %v err %v, want nil/nil", recs, err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	names := []string{"zeta", "alpha", "m.v2", "M-3_x"}
	data, err := EncodeManifest(names)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"M-3_x", "alpha", "m.v2", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest round trip %v, want sorted %v", got, want)
	}
	// Canonical: re-encoding the decode reproduces the bytes.
	again, err := EncodeManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("manifest re-encode is not byte-identical")
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	data, err := EncodeManifest([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x10
		if _, err := DecodeManifest(mutated); err == nil {
			t.Fatalf("byte %d flip decoded", i)
		}
	}
	if _, err := DecodeManifest(data[:len(data)-3]); err == nil {
		t.Fatal("truncated manifest decoded")
	}
}

func TestValidateModelName(t *testing.T) {
	for _, ok := range []string{"a", "model", "emg.v2", "M-3_x", "0day"} {
		if err := ValidateModelName(ok); err != nil {
			t.Errorf("ValidateModelName(%q) = %v, want nil", ok, err)
		}
	}
	long := string(bytes.Repeat([]byte{'a'}, 65))
	for _, bad := range []string{"", ".hidden", "-x", "a/b", "a b", "a\x00b", long, "../escape"} {
		if err := ValidateModelName(bad); err == nil {
			t.Errorf("ValidateModelName(%q) accepted", bad)
		}
	}
}
