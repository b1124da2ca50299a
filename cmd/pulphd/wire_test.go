package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"

	"pulphd/internal/hdc"
)

// The /predict and /learn request and answer shapes as encoding/json
// sees them: tests marshal bodies and read answers with them, and the
// oracles below decode into them.
type predictRequest struct {
	Window [][]float64 `json:"window"`
}

type predictResponse struct {
	Label      string `json:"label"`
	Distance   int    `json:"distance"`
	Generation uint64 `json:"generation"`
	Model      string `json:"model,omitempty"`
}

type learnRequest struct {
	Label  string      `json:"label"`
	Window [][]float64 `json:"window"`
}

type learnResponse struct {
	Generation uint64 `json:"generation"`
	Classes    int    `json:"classes"`
	Model      string `json:"model,omitempty"`
}

// decodePredictJSON is the encoding/json /predict decoder the wire
// codec replaced, kept as the oracle the codec is checked against.
func decodePredictJSON(sv *hdc.Serving, body io.Reader) ([][]float64, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req predictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after request object")
	}
	if err := sv.ValidateWindow(req.Window); err != nil {
		return nil, err
	}
	for _, row := range req.Window {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("window values must be finite")
			}
		}
	}
	return req.Window, nil
}

// decodeLearnJSON is the encoding/json /learn decode step the wire
// codec replaced: decode, then refuse an empty label.
func decodeLearnJSON(body io.Reader) (string, [][]float64, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req learnRequest
	if err := dec.Decode(&req); err != nil {
		return "", nil, fmt.Errorf("decoding request: %w", err)
	}
	if req.Label == "" {
		return "", nil, errors.New("label must be non-empty")
	}
	return req.Label, req.Window, nil
}

// wireQuirkBodies seed FuzzWireAgainstEncodingJSON with the corners of
// encoding/json's accept set and with the two bodies the codec refuses
// on purpose.
var wireQuirkBodies = []string{
	// Bytes after the object: encoding/json took the first object.
	`{"window":[[2,2,2,2]]}}`,
	`{"window":[[2,2,2,2]]}]garbage`,
	`{"label":"z","window":[[5,5,5,5]]}{"label":"y"}`,
	`{"window":[[2,2,2,2]]}x`,
	" \t\r\n{ \"window\" : [ [ 1 , 2 , 3 , 4 ] ] } \n",
	// Null sample values: encoding/json read them as 0, or kept the
	// value an earlier duplicate key had put there.
	`{"window":[[null,2,2,2]]}`,
	`{"label":"z","window":[[5,null,5,5]]}`,
	`{"window":[[1,2,3,4]],"window":[[null,5,5,5]]}`,
	`{"window":[[null,1,1,1]],"window":[[1,2,3,4]]}`,
	// Nulls that are not samples.
	`{"window":null}`,
	`{"window":[null]}`,
	`{"label":"x","window":[null]}`,
	`{"label":"x","window":null}`,
	`{"label":null,"window":[[1,2,3,4]]}`,
	`{"label":"a","window":[[1,2,3,4]],"label":null}`,
	`null`,
	`{"label":"x"}`,
	// Key spellings: case folds, escapes decode first, non-ASCII never
	// folds onto these names.
	`{"Window":[[2,2,2,2]]}`,
	`{"LABEL":"y","WINDOW":[[1,2,3,4]]}`,
	"{\"w\\u0069ndow\":[[2,2,2,2]]}",
	"{\"\\u006cabel\":\"x\",\"window\":[[1,2,3,4]]}",
	"{\"w\\u0049NDOW\":[[2,2,2,2]]}",
	`{"wındow":[[1,2,3,4]]}`,
	`{"window ":[[1,2,3,4]]}`,
	// Duplicate keys: the last one wins.
	`{"window":[[1,2,3,4]],"window":[[5,6,7,8]]}`,
	`{"window":[[1,2,3,4],[5,6,7,8]],"window":[[9,9,9,9]]}`,
	`{"label":"a","label":"b","window":[[1,2,3,4]]}`,
	// Numbers: RFC 8259 grammar, ParseFloat range, signed zeros.
	`{"window":[[-0,0,-0.0,0e0]]}`,
	`{"window":[[-1e-400,1e-400,2,2]]}`,
	`{"window":[[1e999,1,1,1]]}`,
	`{"window":[[-1e999,1,1,1]]}`,
	`{"window":[[1E+2,2e-1,3.25,-4]]}`,
	`{"window":[[1.000000000000000000000000000000000000001,2,3,4]]}`,
	`{"window":[[01,2,3,4]]}`,
	`{"window":[[1.,2,3,4]]}`,
	`{"window":[[.5,2,3,4]]}`,
	`{"window":[[+1,2,3,4]]}`,
	`{"window":[[1e,2,3,4]]}`,
	`{"window":[[-,2,3,4]]}`,
	`{"window":[[0x10,2,3,4]]}`,
	`{"window":[[NaN,2,3,4]]}`,
	`{"window":[[Infinity,2,3,4]]}`,
	`{"window":[["1",2,3,4]]}`,
	`{"window":[[true,2,3,4]]}`,
	`{"window":[[1,2,3,4],]}`,
	`{"window":[[1,2,3,4]],}`,
	`{"window":[[1,2,3,4]] "label":"x"}`,
	`{"window":{}}`,
	`{"window":[{}]}`,
	`{,}`,
	`{"label":5,"window":[[1,2,3,4]]}`,
	// Labels: escapes, surrogates, invalid UTF-8, control characters.
	"{\"label\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\ud83d\\ude00\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\ud800\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\udc00\\ud800x\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\ud800\\ud800\\udc00\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\ud800\\u12\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\u0000<>&\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\xff\xfe\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"a\xc3\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\xed\xa0\x80\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"a\x01b\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\'\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\\x41\",\"window\":[[1,2,3,4]]}",
	"{\"label\":\"\xe2\x80\xa8\",\"window\":[[1,2,3,4]]}",
	"\xef\xbb\xbf{\"window\":[[1,2,3,4]]}",
}

// FuzzWireAgainstEncodingJSON runs every body through the wire codec
// and through the encoding/json decoders it replaced, as a /predict and
// as a /learn body. They must agree on accepting it, except where the
// codec refuses on purpose (a null sample value, bytes after the
// object); an accepted body must give the same label and a
// bit-identical window (−0 stays −0). The body and its halves also
// serve as labels and model names for the answers, which must be
// json.Encoder's bytes.
func FuzzWireAgainstEncodingJSON(f *testing.F) {
	sv := trainedServing(f)
	for _, body := range slices.Concat(fuzzPredictSeeds, wireQuirkBodies) {
		f.Add(body)
	}
	wb := new(wireBuf) // reused across inputs, as the pool reuses it
	f.Fuzz(func(t *testing.T, body string) {
		checkWirePredict(t, sv, wb, body)
		checkWireLearn(t, wb, body)
		checkWireAnswers(t, body, "", len(body), uint64(len(body))<<33)
		checkWireAnswers(t, body[:len(body)/2], body[len(body)/2:], -len(body), math.MaxUint64)
	})
}

func checkWirePredict(t *testing.T, sv *hdc.Serving, wb *wireBuf, body string) {
	t.Helper()
	want, wantErr := decodePredictJSON(sv, strings.NewReader(body))
	got, err := wb.decodePredict(sv, strings.NewReader(body))
	checkWireVerdict(t, "predict", body, wantErr, err)
	if err == nil && !sameWindow(got, want) {
		t.Fatalf("predict %q: codec window %v, encoding/json %v", body, got, want)
	}
}

func checkWireLearn(t *testing.T, wb *wireBuf, body string) {
	t.Helper()
	wantLabel, want, wantErr := decodeLearnJSON(strings.NewReader(body))
	label, got, err := wb.decodeLearn(strings.NewReader(body))
	checkWireVerdict(t, "learn", body, wantErr, err)
	if err == nil && (label != wantLabel || !sameWindow(got, want)) {
		t.Fatalf("learn %q: codec (%q, %v), encoding/json (%q, %v)", body, label, got, wantLabel, want)
	}
}

// checkWireVerdict fails unless the codec (err) and encoding/json
// (wantErr) agree on accepting body, or the codec refused one of the
// two things it refuses on purpose and body holds it.
func checkWireVerdict(t *testing.T, route, body string, wantErr, err error) {
	t.Helper()
	switch {
	case err == nil && wantErr != nil:
		t.Fatalf("%s %q: codec accepted, encoding/json refused: %v", route, body, wantErr)
	case err != nil && wantErr == nil:
		if errors.Is(err, errTrailing) && trailingBytes(body) {
			return
		}
		if errors.Is(err, errNullSample) && nullSample(body) {
			return
		}
		t.Fatalf("%s %q: codec refused (%v), encoding/json accepted", route, body, err)
	}
}

// trailingBytes reports whether body holds anything but whitespace
// after its first JSON value.
func trailingBytes(body string) bool {
	dec := json.NewDecoder(strings.NewReader(body))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	return strings.TrimLeft(body[dec.InputOffset():], " \t\r\n") != ""
}

// nullSample reports whether a null stands for a sample value in any
// "window" of body's top-level object, as in {"window": [[null]]}.
func nullSample(body string) bool {
	dec := json.NewDecoder(strings.NewReader(body))
	depth := 0
	key := true     // at depth 1, the next token is a key
	window := false // the depth-1 value being read is a window's
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
			continue
		case json.Delim('}'), json.Delim(']'):
			if depth--; depth == 1 {
				key = true
			}
			continue
		case nil:
			if window && depth == 3 {
				return true
			}
		}
		if depth == 1 {
			if key {
				name, _ := tok.(string)
				window = strings.EqualFold(name, "window")
			}
			key = !key
		}
	}
}

// sameWindow compares windows bit for bit, so −0 differs from 0.
func sameWindow(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkWireAnswers compares both appended answers with what
// json.Encoder writes for the same fields.
func checkWireAnswers(t *testing.T, label, model string, n int, gen uint64) {
	t.Helper()
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(predictResponse{Label: label, Distance: n, Generation: gen, Model: model})
	if got := appendPredictAnswer(nil, label, n, gen, model); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("predict answer for (%q, %q):\n got %q\nwant %q", label, model, got, want.Bytes())
	}
	want.Reset()
	json.NewEncoder(&want).Encode(learnResponse{Generation: gen, Classes: n, Model: model})
	if got := appendLearnAnswer(nil, gen, n, model); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("learn answer for %q:\n got %q\nwant %q", model, got, want.Bytes())
	}
}

// TestWireAnswersMatchEncodingJSON holds the appended answers to
// json.Encoder's bytes on the strings it escapes specially and on
// random labels and model names.
func TestWireAnswersMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "rest", `"quoted" \back\slash/`, "<script>&amp;</script>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "\xe2\x80\xa8\xe2\x80\xa9", "\xe2\x80\xaa",
		"\xff", "a\xc3", "\xed\xa0\x80", "\xef\xbf\xbd", "é中😀",
	} {
		checkWireAnswers(t, s, s, -7, 0)
		checkWireAnswers(t, s, "", math.MaxInt, math.MaxUint64)
	}
	if err := quick.Check(func(label, model string, n int, gen uint64) bool {
		checkWireAnswers(t, label, model, n, gen)
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWireKeysFoldLikeEncodingJSON pins why the codec may compare keys
// with strings.EqualFold: encoding/json folds each rune of a key to the
// smallest rune of its Unicode fold set, and no rune outside ASCII
// folds onto a letter of "window" or "label" (only ſ and the Kelvin
// sign reach ASCII, as s and k).
func TestWireKeysFoldLikeEncodingJSON(t *testing.T) {
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		f := r
		for {
			next := unicode.SimpleFold(f)
			if next <= f {
				f = next
				break
			}
			f = next
		}
		if f < utf8.RuneSelf && strings.ContainsRune("WINDOWLABELwindowlabel", f) {
			t.Fatalf("U+%04X folds to %q, a letter of a field name", r, f)
		}
	}
}

// TestLearnedLabelOwnsItsBytes pins that a label learned through /learn
// is a copy, not a view of the pooled request storage: bodies decoded
// later through the same storage must not change the model's labels.
func TestLearnedLabelOwnsItsBytes(t *testing.T) {
	api := newTestServer(t, trainedServing(t), 8, nil)
	cfg := testServingConfig()
	post := func(h http.HandlerFunc, body string) {
		t.Helper()
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d for %s (%s)", w.Code, body, w.Body)
		}
	}
	learn := func(label string, level float64) string {
		body, err := json.Marshal(learnRequest{Label: label, Window: testWindow(cfg, level)})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	post(api.handleLearn, learn("alpha", 9))
	for range 20 {
		post(api.handleLearn, learn("omega", 12))
		post(api.handlePredict, windowJSON(t, cfg, 16))
		post(api.handlePredict, `{"window":[[17.25,3.5,8,0.125]]}`)
	}
	if got, want := served(t, api).Labels(), []string{"rest", "fist", "alpha", "omega"}; !slices.Equal(got, want) {
		t.Fatalf("labels %q after reusing the request storage, want %q", got, want)
	}
}

// raceEnabled is set by race_test.go under the race detector, which
// makes sync.Pool drop a random quarter of what is put back, so no
// allocation count holds.
var raceEnabled bool

// TestHandlerAllocations pins the steady-state hot routes: handlePredict
// allocates once per request, the http.MaxBytesReader wrapper (22 times
// in this fixture when it decoded with encoding/json), and handleLearn
// six times, its label string among them; the decode allocates
// nothing, and a learn's decode only its label string. Observing as
// the benchmark's `pulphd serve -trace-requests=0` does — host and
// per-model metrics, the flight recorder and the SLO engine on — and
// as a flagless `pulphd serve` does, request tracing on too, allocates
// nothing more than observing nothing: the span recorder is pooled
// with the request's wire buffers and passed down as an argument.
func TestHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	var fx *handlerFixture
	for _, c := range []struct {
		name      string
		serveArgs []string
	}{{"off", nil}, {"serve-no-tracing", []string{"-trace-requests=0"}}, {"defaults", []string{}}} {
		fx = newHandlerFixture(t, c.serveArgs)
		if allocs := testing.AllocsPerRun(200, func() { fx.serve(fx.predict, fx.predictBody) }); allocs > 1 {
			t.Errorf("%s: handlePredict allocates %v times per request, want ≤ 1", c.name, allocs)
		}
		if fx.w.code != http.StatusOK {
			t.Fatalf("%s: predict status %d", c.name, fx.w.code)
		}
		var i int
		if allocs := testing.AllocsPerRun(200, func() {
			fx.serve(fx.learn, fx.learnBodies[i%len(fx.learnBodies)])
			i++
		}); allocs > 6 {
			t.Errorf("%s: handleLearn allocates %v times per request, want ≤ 6", c.name, allocs)
		}
		if fx.w.code != http.StatusOK {
			t.Fatalf("%s: learn status %d", c.name, fx.w.code)
		}
	}
	body := fx.predictBody
	wb := new(wireBuf)
	var rd bytes.Reader
	if allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		if _, err := wb.decodePredict(fx.sv, &rd); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decodePredict allocates %v times per request, want 0", allocs)
	}
	learn := fx.learnBodies[0]
	if allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(learn)
		if _, _, err := wb.decodeLearn(&rd); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("decodeLearn allocates %v times per request, want 1 (the label)", allocs)
	}
}

// TestWirePoolDropsLargeBuffers pins the pool hygiene: storage grown
// past wirePoolCap by one large body is not filed back.
func TestWirePoolDropsLargeBuffers(t *testing.T) {
	big := &wireBuf{body: make([]byte, 0, wirePoolCap+1)}
	putWire(big)
	for range 4 {
		if b := getWire(); b == big {
			t.Fatal("a buffer past wirePoolCap went back into the pool")
		}
	}
}
