package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"pulphd/internal/hdc"
	"pulphd/internal/obs"
)

// This file is the wire codec of the two hot routes, /predict and
// /learn in both their legacy and /models/{model}/… shapes. A request
// reads its body into pooled storage, decodes it in one pass into a
// window whose rows share one backing array, and appends its answer
// into the same storage. The codec accepts the bodies encoding/json
// accepted into {"window": [][]float64} and {"label": string, "window":
// [][]float64} with unknown fields disallowed, with two exceptions: a
// null sample value and any byte after the object other than
// whitespace are rejected (encoding/json read the one as 0 and ignored
// the other). The answers are byte for byte what json.Encoder wrote.
// The differential fuzz target in wire_test.go holds both claims
// against encoding/json.

// wirePoolCap is the largest buffer, in bytes, that goes back into
// wirePool. A request that grew one past it (a body near the 1 MiB
// bound) drops its storage, so one large body does not pin memory per P.
const wirePoolCap = 64 << 10

// wireBuf is one hot-route request's storage. body holds the request
// body and then the answer. The decoded window is rows: row i is
// vals[ends[i-1]:ends[i]]. key and label hold unescaped string bytes.
// rec is the request's span recorder while request tracing is on,
// built by the first traced request to draw this buffer (see begin).
type wireBuf struct {
	body  []byte
	vals  []float64
	ends  []int
	rows  [][]float64
	key   []byte
	label []byte
	rec   *obs.Spans
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func getWire() *wireBuf { return wirePool.Get().(*wireBuf) }

// putWire files b back for the next request. Nothing decoded from b may
// be used after this: the window is a view of b, and a label handed out
// by decodeLearn is a copy.
func putWire(b *wireBuf) {
	if cap(b.body) > wirePoolCap || cap(b.vals)*8 > wirePoolCap || cap(b.ends)*8 > wirePoolCap ||
		cap(b.rows)*24 > wirePoolCap || cap(b.key) > wirePoolCap || cap(b.label) > wirePoolCap {
		return
	}
	wirePool.Put(b)
}

// jsonContentType is the Content-Type of every hot-route answer. The
// slice is shared and never mutated, so setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// writeAnswer sends an answer built by appendPredictAnswer or
// appendLearnAnswer.
func writeAnswer(w http.ResponseWriter, answer []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(answer)
}

var (
	errTrailing   = errors.New("trailing data after request object")
	errNullSample = errors.New("window values must be numbers, not null")
)

// decodePredict reads a /predict body and returns its window, checked
// against sv's shape. The window is a view of b, valid until putWire.
func (b *wireBuf) decodePredict(sv *hdc.Serving, body io.Reader) ([][]float64, error) {
	if err := b.decode(body, false); err != nil {
		return nil, err
	}
	if err := sv.ValidateWindow(b.rows); err != nil {
		return nil, err
	}
	return b.rows, nil
}

// decodeLearn reads a /learn body and returns its label, a fresh string
// that outlives b, and its window, a view of b valid until putWire. The
// registry checks the window's shape.
func (b *wireBuf) decodeLearn(body io.Reader) (string, [][]float64, error) {
	if err := b.decode(body, true); err != nil {
		return "", nil, err
	}
	if len(b.label) == 0 {
		return "", nil, errors.New("label must be non-empty")
	}
	return string(b.label), b.rows, nil
}

// readBody reads r to EOF into b.body.
func (b *wireBuf) readBody(r io.Reader) error {
	buf := b.body[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			b.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decode reads body into b and decodes it.
func (b *wireBuf) decode(body io.Reader, learn bool) error {
	if err := b.readBody(body); err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	if err := b.parse(learn); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// parse decodes the request object in b.body: "window" always, "label"
// when learn is set. Keys match as encoding/json matched them, case
// folded after unescaping, and the last of duplicate keys wins. A null
// window, row or label means what encoding/json made of it: no window,
// an empty row, the label unchanged.
func (b *wireBuf) parse(learn bool) error {
	b.vals, b.ends, b.rows, b.label = b.vals[:0], b.ends[:0], b.rows[:0], b.label[:0]
	s := b.body
	i := skipSpace(s, 0)
	if i == len(s) || s[i] != '{' {
		return errors.New("request must be a JSON object")
	}
	i, err := list(s, i+1, '}', func(i int) (int, error) { return b.field(s, i, learn) })
	if err != nil {
		return err
	}
	if skipSpace(s, i) != len(s) {
		return errTrailing
	}
	return nil
}

// list parses the elements of the array or object whose opening byte
// precedes s[i], each with elem from its first byte, through the
// closing byte end, and returns the index past end.
func list(s []byte, i int, end byte, elem func(i int) (int, error)) (int, error) {
	if i = skipSpace(s, i); i < len(s) && s[i] == end {
		return i + 1, nil
	}
	for {
		var err error
		if i, err = elem(i); err != nil {
			return i, err
		}
		i = skipSpace(s, i)
		if i < len(s) && s[i] == ',' {
			i = skipSpace(s, i+1)
			continue
		}
		if i < len(s) && s[i] == end {
			return i + 1, nil
		}
		return i, syntaxErr(i)
	}
}

// field decodes the object member at s[i], key and value.
func (b *wireBuf) field(s []byte, i int, learn bool) (int, error) {
	if i == len(s) || s[i] != '"' {
		return i, syntaxErr(i)
	}
	var err error
	if b.key, i, err = appendUnquoted(b.key[:0], s, i); err != nil {
		return i, err
	}
	if i = skipSpace(s, i); i == len(s) || s[i] != ':' {
		return i, syntaxErr(i)
	}
	i = skipSpace(s, i+1)
	switch {
	case strings.EqualFold(string(b.key), "window"):
		return b.window(s, i)
	case learn && strings.EqualFold(string(b.key), "label"):
		return b.labelValue(s, i)
	}
	return i, fmt.Errorf("unknown field %q", b.key)
}

// window decodes the "window" value at s[i] into b.rows and returns the
// index past it.
func (b *wireBuf) window(s []byte, i int) (int, error) {
	b.vals, b.ends, b.rows = b.vals[:0], b.ends[:0], b.rows[:0]
	if hasLiteral(s, i, "null") {
		return i + 4, nil
	}
	if i == len(s) || s[i] != '[' {
		return i, errors.New("window must be an array of rows")
	}
	i, err := list(s, i+1, ']', func(i int) (int, error) {
		i, err := b.row(s, i)
		b.ends = append(b.ends, len(b.vals))
		return i, err
	})
	if err != nil {
		return i, err
	}
	// Rows are cut only now: appending to vals may have moved it.
	start := 0
	for _, end := range b.ends {
		b.rows = append(b.rows, b.vals[start:end:end])
		start = end
	}
	return i, nil
}

// row appends the samples of the row at s[i] to b.vals and returns the
// index past it. A null row adds none.
func (b *wireBuf) row(s []byte, i int) (int, error) {
	if hasLiteral(s, i, "null") {
		return i + 4, nil
	}
	if i == len(s) || s[i] != '[' {
		return i, errors.New("window rows must be arrays of numbers")
	}
	return list(s, i+1, ']', func(i int) (int, error) {
		end := numberEnd(s, i)
		if end < 0 {
			if hasLiteral(s, i, "null") {
				return i, errNullSample
			}
			return i, fmt.Errorf("window values must be numbers (byte %d)", i)
		}
		// ParseFloat copies the literal into any error it returns, so
		// the view of the pooled body does not outlive this call. Its
		// range error is the finiteness check: JSON has no literal for
		// NaN or ±Inf.
		v, err := strconv.ParseFloat(unsafe.String(&s[i], end-i), 64)
		if err != nil {
			return i, fmt.Errorf("window value: %w", err)
		}
		b.vals = append(b.vals, v)
		return end, nil
	})
}

// labelValue decodes the "label" value at s[i] into b.label and returns
// the index past it.
func (b *wireBuf) labelValue(s []byte, i int) (int, error) {
	if hasLiteral(s, i, "null") {
		return i + 4, nil
	}
	if i == len(s) || s[i] != '"' {
		return i, errors.New("label must be a string")
	}
	var err error
	b.label, i, err = appendUnquoted(b.label[:0], s, i)
	return i, err
}

// appendUnquoted appends the JSON string that opens at s[i] to dst,
// unescaped as encoding/json unescapes it: a \u surrogate pair is
// joined, a lone surrogate and each byte of invalid UTF-8 become
// U+FFFD, and a raw control character is an error. It returns the
// index past the closing quote.
func appendUnquoted(dst, s []byte, i int) ([]byte, int, error) {
	for i++; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			return dst, i + 1, nil
		case c == '\\':
			if i+1 == len(s) {
				return dst, i, syntaxErr(i)
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s, i+2)
				if r < 0 {
					return dst, i, syntaxErr(i)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s, i+2)
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default:
				return dst, i, syntaxErr(i)
			}
			i += 2
		case c < ' ':
			return dst, i, fmt.Errorf("control character in string (byte %d)", i)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst, i, syntaxErr(i)
}

// hex4 returns the value of the four hex digits at s[i:], or -1.
func hex4(s []byte, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	v, err := strconv.ParseUint(string(s[i:i+4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// numberEnd returns the end of the RFC 8259 number that starts at s[i],
// or -1 when none does.
func numberEnd(s []byte, i int) int {
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digitsEnd(s, i)
	default:
		return -1
	}
	if i < len(s) && s[i] == '.' {
		if i++; i == len(s) || s[i] < '0' || s[i] > '9' {
			return -1
		}
		i = digitsEnd(s, i)
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == len(s) || s[i] < '0' || s[i] > '9' {
			return -1
		}
		i = digitsEnd(s, i)
	}
	return i
}

func digitsEnd(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

func hasLiteral(s []byte, i int, lit string) bool {
	return len(s)-i >= len(lit) && string(s[i:i+len(lit)]) == lit
}

func syntaxErr(i int) error {
	return fmt.Errorf("malformed JSON at byte %d", i)
}

// appendPredictAnswer appends the /predict answer: the bytes
// json.NewEncoder(w).Encode wrote for {label, distance, generation,
// model (omitted when empty)}, newline included.
func appendPredictAnswer(dst []byte, label string, distance int, generation uint64, model string) []byte {
	dst = append(dst, `{"label":`...)
	dst = appendJSONString(dst, label)
	dst = append(dst, `,"distance":`...)
	dst = strconv.AppendInt(dst, int64(distance), 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, generation, 10)
	return appendAnswerEnd(dst, model)
}

// appendLearnAnswer appends the /learn answer, {generation, classes,
// model (omitted when empty)}, as appendPredictAnswer does.
func appendLearnAnswer(dst []byte, generation uint64, classes int, model string) []byte {
	dst = append(dst, `{"generation":`...)
	dst = strconv.AppendUint(dst, generation, 10)
	dst = append(dst, `,"classes":`...)
	dst = strconv.AppendInt(dst, int64(classes), 10)
	return appendAnswerEnd(dst, model)
}

func appendAnswerEnd(dst []byte, model string) []byte {
	if model != "" {
		dst = append(dst, `,"model":`...)
		dst = appendJSONString(dst, model)
	}
	return append(dst, "}\n"...)
}

// appendJSONString appends s quoted as json.Encoder quotes it with HTML
// escaping on: <, > and & as \u003c, \u003e and \u0026, U+2028 and
// U+2029 escaped, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
