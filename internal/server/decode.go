package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxBodyBytes bounds request bodies (a 1M-object bulk insert belongs
// in the bulk-load CLI, not one HTTP request).
const maxBodyBytes = 32 << 20

var errTrailingBody = errors.New("request body has trailing data after the JSON document")

// decodeJSON strictly decodes one JSON document from the request body:
// unknown fields and trailing garbage are errors, so client typos fail
// loudly instead of silently searching with defaults.
//
// The body is read once, under the maxBodyBytes cap. Search and insert
// bodies in canonical form (see fastDecoder) are then decoded in a
// single pass straight into their vectors; every other body, and every
// body of another request type, goes through encoding/json over the
// same bytes. The fast path declines anything it is not certain
// encoding/json would decode to the same value, so the accepted inputs,
// the decoded values and every error message are exactly those of the
// strict decoder. v must point to a zero value.
func decodeJSON(r *http.Request, v any) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		// Neither decoder returns anything that aliases the body.
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err == nil && decodeFast(buf.Bytes(), v) {
		return nil
	}
	return decodeStrict(buf.Bytes(), err, v)
}

// bodyBufs recycles request-body buffers. A buffer grows only as bytes
// arrive; one grown past maxPooledBody (a bulk insert) is left to the
// collector rather than pinned.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeStrict is the encoding/json decode of a body that was read as
// far as readErr (nil when it was read to the end). The decoder sees
// the same bytes and then the same read error that it would have seen
// streaming from the request, so it fails, or succeeds, the same way.
func decodeStrict(body []byte, readErr error, v any) error {
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingBody
	}
	return nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFast decodes a canonical *SearchRequest or *InsertRequest body
// into v and reports whether it did; on false, v is untouched.
//
// Canonical means: one JSON object with each known field at most once,
// spelled exactly as its tag; keys and modality names of printable
// ASCII without escapes (a repeated name's last value wins, as in
// encoding/json); numbers that
// parse into their Go type without a range error; no null; and nothing
// but whitespace after the document. Numbers are checked against the
// JSON grammar and then parsed with the strconv calls encoding/json
// makes, so values are bit-identical.
func decodeFast(body []byte, v any) bool {
	d := fastDecoder{b: body}
	switch dst := v.(type) {
	case *SearchRequest:
		var req SearchRequest
		if d.search(&req) && d.end() {
			*dst = req
			return true
		}
	case *InsertRequest:
		var req InsertRequest
		if d.insert(&req) && d.end() {
			*dst = req
			return true
		}
	}
	return false
}

// fastDecoder is a cursor over a request body. Every method returns
// false as soon as the input leaves the canonical form.
type fastDecoder struct {
	b   []byte
	pos int
	// names interns modality names, so a bulk insert allocates each
	// distinct name once rather than once per object.
	names []string
}

func (d *fastDecoder) search(req *SearchRequest) bool {
	var seen uint
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "vectors":
			return once(&seen, 0) && d.vectors(&req.Vectors)
		case "k":
			return once(&seen, 1) && d.int(&req.K)
		case "l":
			return once(&seen, 2) && d.int(&req.L)
		case "weights":
			return once(&seen, 3) && d.weights(&req.Weights)
		case "patience":
			return once(&seen, 4) && d.int(&req.Patience)
		case "disable_optimization":
			return once(&seen, 5) && d.bool(&req.DisableOptimization)
		case "timeout_ms":
			return once(&seen, 6) && d.int(&req.TimeoutMS)
		case "no_cache":
			return once(&seen, 7) && d.bool(&req.NoCache)
		}
		return false
	})
}

func (d *fastDecoder) insert(req *InsertRequest) bool {
	var seen uint
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "vectors":
			return once(&seen, 0) && d.vectors(&req.Vectors)
		case "objects":
			return once(&seen, 1) && d.objects(&req.Objects)
		}
		return false
	})
}

// once reports whether a field's bit was still clear in seen, and sets
// it: a duplicate key declines, since encoding/json would merge maps.
func once(seen *uint, bit uint) bool {
	dup := *seen&(1<<bit) != 0
	*seen |= 1 << bit
	return !dup
}

// objects decodes a non-null array of vector maps.
func (d *fastDecoder) objects(dst *[]map[string][]float32) bool {
	if !d.consume('[') {
		return false
	}
	*dst = []map[string][]float32{}
	if d.consume(']') {
		return true
	}
	for {
		var m map[string][]float32
		if !d.vectors(&m) {
			return false
		}
		*dst = append(*dst, m)
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// vectors decodes a non-null object of modality name → float array.
func (d *fastDecoder) vectors(dst *map[string][]float32) bool {
	m := make(map[string][]float32)
	ok := d.object(func(key []byte) bool {
		v, ok := d.floats()
		m[d.intern(key)] = v
		return ok
	})
	*dst = m
	return ok
}

// weights decodes a non-null object of modality name → number.
func (d *fastDecoder) weights(dst *map[string]float32) bool {
	m := make(map[string]float32)
	ok := d.object(func(key []byte) bool {
		f, ok := d.float()
		m[d.intern(key)] = f
		return ok
	})
	*dst = m
	return ok
}

// floats decodes a non-null array of numbers into a slice allocated
// once, at its final length.
func (d *fastDecoder) floats() ([]float32, bool) {
	if !d.consume('[') {
		return nil, false
	}
	if d.consume(']') {
		return []float32{}, true
	}
	// Size the slice by the commas before the next ']'. Numbers hold
	// neither byte, so for a canonical array this is its length; any
	// other array declines below, and the slice stays within four bytes
	// per body byte.
	rest := d.b[d.pos:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return nil, false
	}
	out := make([]float32, bytes.Count(rest[:end], []byte{','})+1)
	for i := range out {
		if i > 0 && !d.consume(',') {
			return nil, false
		}
		f, ok := d.float()
		if !ok {
			return nil, false
		}
		out[i] = f
	}
	return out, d.consume(']')
}

// float decodes one number as encoding/json decodes it into a float32.
func (d *fastDecoder) float() (float32, bool) {
	tok := d.number()
	if tok == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	return float32(f), err == nil
}

// int decodes one number as encoding/json decodes it into an int.
func (d *fastDecoder) int(dst *int) bool {
	tok := d.number()
	if tok == nil {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (d *fastDecoder) bool(dst *bool) bool {
	d.skipSpace()
	rest := d.b[d.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		d.pos += 4
	case bytes.HasPrefix(rest, []byte("false")):
		d.pos += 5
	default:
		return false
	}
	return true
}

// number returns the token at the cursor if it follows the JSON number
// grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, else nil.
// strconv alone would also take Inf, NaN, hex floats, a leading '+' or
// '.', and underscores. The caller checks what follows, so "01" or
// "1x" decline there.
func (d *fastDecoder) number() []byte {
	d.skipSpace()
	b, i := d.b, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil
		}
		i = j
	}
	tok := b[d.pos:i]
	d.pos = i
	return tok
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// object walks a non-null JSON object, handing each key to field,
// which must consume the value.
func (d *fastDecoder) object(field func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.key()
		if !ok || !d.consume(':') || !field(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// key returns the raw bytes of a string of printable ASCII without
// escapes; anything else (escapes, control bytes, non-ASCII, which
// encoding/json unescapes or repairs) declines.
func (d *fastDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start := d.pos
	for ; d.pos < len(d.b); d.pos++ {
		switch c := d.b[d.pos]; {
		case c == '"':
			d.pos++
			return d.b[start : d.pos-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *fastDecoder) intern(b []byte) string {
	for _, s := range d.names {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if len(d.names) < 8 {
		d.names = append(d.names, s)
	}
	return s
}

// consume skips whitespace and then the byte c, reporting whether c
// was there.
func (d *fastDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.b) && d.b[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *fastDecoder) skipSpace() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// end reports whether only whitespace follows the document.
func (d *fastDecoder) end() bool {
	d.skipSpace()
	return d.pos == len(d.b)
}
