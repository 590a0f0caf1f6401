package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the decoder fuzz seed corpus under testdata/fuzz")

// strictDecode is the oracle: the streaming encoding/json decode that
// decodeJSON has always been specified by (unknown fields and trailing
// data are errors).
func strictDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingBody
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecode asserts decodeJSON matches the oracle on body: the same
// error string, and on success a deeply equal value.
func checkDecode[T any](t *testing.T, body []byte) {
	t.Helper()
	var want, got T
	wantErr := strictDecode(bytes.NewReader(body), &want)
	gotErr := decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &got)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("error %q, encoding/json says %q\nbody: %q", errString(gotErr), errString(wantErr), body)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %#v, encoding/json decoded %#v\nbody: %q", got, want, body)
	}
}

func FuzzDecodeSearchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode[SearchRequest](t, body) })
}

func FuzzDecodeInsertRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode[InsertRequest](t, body) })
}

// decodeCase is one request body. The fuzz seed corpus is written from
// these, and the handler test posts them to the 24+12-d test server.
type decodeCase struct {
	name string
	body string
	// status is the reply code against the test server: what the
	// streaming encoding/json decoder has always led to.
	status int
}

func vecJSON(rng *rand.Rand, dim int) string {
	raw, err := json.Marshal(randVec(rng, dim))
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// editCases derives the edge cases shared by both endpoints from a
// canonical body and a variant of it whose first vector element is
// replaced (first(tok)).
func editCases(base string, first func(tok string) string) []decodeCase {
	return []decodeCase{
		{"float32-overflow", first("1e39"), 400},
		{"float32-underflow", first("1e-46"), 200},
		{"negative-zero", first("-0"), 200},
		{"exponent", first("-12.5E-3"), 200},
		{"hex-float", first("0x1p3"), 400},
		{"infinity", first("Infinity"), 400},
		{"nan", first("NaN"), 400},
		{"plus-sign", first("+1"), 400},
		{"leading-dot", first(".5"), 400},
		{"underscore", first("1_0"), 400},
		{"leading-zero", first("01"), 400},
		{"string-element", first(`"1"`), 400},
		{"escaped-key", strings.Replace(base, `"image"`, `"\u0069mage"`, 1), 200},
		{"non-ascii-key", strings.Replace(base, `"image"`, `"imagé"`, 1), 400},
		{"indented", strings.NewReplacer(",", " ,\n\t", ":", " :\r\n ").Replace(base), 200},
		{"trailing-garbage", base + " x", 400},
		// More() reads a closing bracket as the end of the stream, so
		// the strict decoder has always accepted these.
		{"trailing-brace", base + "}", 200},
		{"trailing-space", base + " \n", 200},
		{"trailing-document", base + base, 400},
		{"truncated", base[:len(base)/2], 400},
		{"empty", "", 400},
		{"null", "null", 400},
		{"array", "[" + base + "]", 400},
	}
}

// searchCases builds /v1/search bodies over the 24+12-d test schema.
func searchCases() []decodeCase {
	rng := rand.New(rand.NewSource(7))
	img, txt := vecJSON(rng, testImgDim), vecJSON(rng, testTxtDim)
	img2 := vecJSON(rng, testImgDim)
	vectors := `"vectors":{"image":` + img + `,"text":` + txt + `}`
	base := `{` + vectors + `,"k":5}`
	first := func(tok string) string {
		return `{"vectors":{"image":[` + tok + img[strings.IndexByte(img, ','):] + `,"text":` + txt + `},"k":5}`
	}
	return append([]decodeCase{
		{"canonical-36d", base, 200},
		{"all-fields", `{` + vectors + `,"k":5,"l":40,"weights":{"image":0.8,"text":0.6},"patience":3,` +
			`"disable_optimization":true,"timeout_ms":1000,"no_cache":false}`, 200},
		{"empty-vectors", `{"vectors":{},"k":5}`, 400},
		{"empty-vector", `{"vectors":{"image":[],"text":` + txt + `}}`, 400},
		{"key-case-folded", `{` + vectors + `,"K":5}`, 200},
		{"duplicate-k", `{` + vectors + `,"k":5,"k":7}`, 200},
		{"duplicate-modality", `{"vectors":{"image":` + img + `,"image":` + img2 + `,"text":` + txt + `}}`, 200},
		// encoding/json decodes a repeated map field into the map it
		// already holds: these two merge into one vector map.
		{"duplicate-vectors", `{"vectors":{"image":` + img + `},"vectors":{"text":` + txt + `},"k":5}`, 200},
		{"weights-null", `{` + vectors + `,"k":5,"weights":null}`, 200},
		{"vector-null", `{"vectors":{"image":null,"text":` + txt + `}}`, 400},
		{"unknown-field", `{` + vectors + `,"kk":5}`, 400},
		{"k-float", `{` + vectors + `,"k":5.0}`, 400},
		{"k-overflow", `{` + vectors + `,"k":9223372036854775808}`, 400},
		{"bool-null", `{` + vectors + `,"no_cache":null}`, 200},
	}, editCases(base, first)...)
}

// insertCases builds /v1/insert bodies over the 24+12-d test schema.
func insertCases() []decodeCase {
	rng := rand.New(rand.NewSource(8))
	img, txt := vecJSON(rng, testImgDim), vecJSON(rng, testTxtDim)
	obj := `{"image":` + img + `,"text":` + txt + `}`
	base := `{"objects":[` + obj + `,` + obj + `]}`
	first := func(tok string) string {
		return `{"objects":[{"image":[` + tok + img[strings.IndexByte(img, ','):] + `,"text":` + txt + `}]}`
	}
	return append([]decodeCase{
		{"canonical-36d", base, 200},
		{"vectors-and-objects", `{"vectors":` + obj + `,"objects":[` + obj + `]}`, 200},
		{"vectors-only", `{"vectors":` + obj + `}`, 200},
		{"objects-empty", `{"objects":[]}`, 400},
		{"objects-null", `{"objects":null}`, 400},
		{"object-null", `{"objects":[null]}`, 400},
		{"object-empty", `{"objects":[{}]}`, 400},
		{"key-case-folded", `{"Objects":[` + obj + `]}`, 200},
		{"duplicate-vectors", `{"vectors":{"image":` + img + `},"vectors":{"text":` + txt + `}}`, 200},
		{"duplicate-objects", `{"objects":[{"image":` + img + `}],"objects":[{"text":` + txt + `}]}`, 200},
	}, editCases(base, first)...)
}

// clipCase is a canonical body at CLIP scale (512+256-d).
func clipCase(insert bool) decodeCase {
	rng := rand.New(rand.NewSource(9))
	obj := `{"image":` + vecJSON(rng, 512) + `,"text":` + vecJSON(rng, 256) + `}`
	if insert {
		return decodeCase{name: "canonical-768d", body: `{"vectors":` + obj + `,"objects":[` + obj + `]}`}
	}
	return decodeCase{name: "canonical-768d", body: `{"vectors":` + obj + `,"k":10}`}
}

// TestWriteDecodeCorpus rewrites the committed seed corpus when run
// with -update-corpus; otherwise it checks every case has its file.
func TestWriteDecodeCorpus(t *testing.T) {
	for target, cases := range map[string][]decodeCase{
		"FuzzDecodeSearchRequest": append(searchCases(), clipCase(false)),
		"FuzzDecodeInsertRequest": append(insertCases(), clipCase(true)),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		for _, c := range cases {
			path := filepath.Join(dir, c.name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", c.body)
			if *updateCorpus {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != want {
				t.Errorf("%s is missing or stale; rerun with -update-corpus", path)
			}
		}
	}
}

// TestDecodeFastPathTaken pins that canonical bodies, compact or as
// json.Marshal writes them, skip encoding/json: the point of the fast
// path is lost silently otherwise.
func TestDecodeFastPathTaken(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	obj := map[string][]float32{"image": randVec(rng, testImgDim), "text": randVec(rng, testTxtDim)}
	bodies := map[string]any{
		"search": &SearchRequest{Vectors: obj, K: 3, L: 40, Weights: map[string]float32{"image": 0.5},
			Patience: 2, DisableOptimization: true, TimeoutMS: 100, NoCache: true},
		"insert": &InsertRequest{Vectors: obj, Objects: []map[string][]float32{obj, obj}},
	}
	for name, v := range bodies {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fresh := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if !decodeFast(raw, fresh) {
			t.Fatalf("%s: canonical body declined: %s", name, raw)
		}
		if !reflect.DeepEqual(fresh, v) {
			t.Fatalf("%s: decoded %#v, want %#v", name, fresh, v)
		}
	}
	for _, c := range append(searchCases(), clipCase(false)) {
		if strings.HasPrefix(c.name, "canonical") && !decodeFast([]byte(c.body), new(SearchRequest)) {
			t.Fatalf("search %s declined", c.name)
		}
	}
	for _, c := range append(insertCases(), clipCase(true)) {
		if strings.HasPrefix(c.name, "canonical") && !decodeFast([]byte(c.body), new(InsertRequest)) {
			t.Fatalf("insert %s declined", c.name)
		}
	}
}

// TestDecodeReadErrors covers bodies that fail mid-read: the decoder
// must see the bytes that arrived and then the error, exactly as the
// streaming decoder did.
func TestDecodeReadErrors(t *testing.T) {
	cut := errors.New("connection reset")
	canonical := searchCases()[0].body
	for name, prefix := range map[string]string{
		"complete-document": canonical,
		"partial-document":  canonical[:len(canonical)/2],
		"syntax-error":      `{"vectors":x`,
		"nothing":           "",
	} {
		t.Run(name, func(t *testing.T) {
			body := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(cut)) }
			var want, got SearchRequest
			wantErr := strictDecode(body(), &want)
			gotErr := decodeJSON(httptest.NewRequest(http.MethodPost, "/", body()), &got)
			if errString(gotErr) != errString(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("got (%v, %+v), encoding/json gives (%v, %+v)", gotErr, got, wantErr, want)
			}
		})
	}

	// Over the body cap: a syntax error early in the body still wins
	// over the cap's error, as it did when the decoder streamed.
	if testing.Short() {
		return
	}
	big := `{"vectors":x` + strings.Repeat(" ", maxBodyBytes)
	var want, got SearchRequest
	wantErr := strictDecode(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(big)), maxBodyBytes), &want)
	gotErr := decodeJSON(httptest.NewRequest(http.MethodPost, "/", strings.NewReader(big)), &got)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("oversized body: got %v, encoding/json gives %v", gotErr, wantErr)
	}
}

// TestServerDecodeEdgeCases posts every edge case to a live server and
// checks the status the strict decoder has always produced.
func TestServerDecodeEdgeCases(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{})
	for path, cases := range map[string][]decodeCase{
		"/v1/search": searchCases(),
		"/v1/insert": insertCases(),
	} {
		for _, c := range cases {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("%s %s: status %d (%s), want %d", path, c.name, resp.StatusCode, bytes.TrimSpace(data), c.status)
			}
		}
	}
}

// BenchmarkDecodeRequest compares the single-pass decoder with the
// encoding/json decode it replaces, on a CLIP-scale search body and a
// 256-object CLIP-scale insert body.
func BenchmarkDecodeRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	obj := func() map[string][]float32 {
		return map[string][]float32{"image": randVec(rng, 512), "text": randVec(rng, 256)}
	}
	search, err := json.Marshal(&SearchRequest{Vectors: obj(), K: 10})
	if err != nil {
		b.Fatal(err)
	}
	objects := make([]map[string][]float32, 256)
	for i := range objects {
		objects[i] = obj()
	}
	insert, err := json.Marshal(&InsertRequest{Objects: objects})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
		v    func() any
	}{
		{"search768", search, func() any { return new(SearchRequest) }},
		{"insert256x768", insert, func() any { return new(InsertRequest) }},
	} {
		b.Run(bc.name+"/single-pass", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if err := decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(bc.body)), bc.v()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if err := strictDecode(bytes.NewReader(bc.body), bc.v()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
