package must

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

func TestCollectionRoundTrip(t *testing.T) {
	c, queries, _ := buildCorpus(t, 200, 5, 91)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() || got.Modalities() != c.Modalities() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Len(), got.Modalities(), c.Len(), c.Modalities())
	}
	for id := 0; id < c.Len(); id++ {
		a, _ := c.Object(id)
		b, _ := got.Object(id)
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("object %d differs after round trip", id)
				}
			}
		}
	}
	_ = queries
}

// Full persistence: save collection + index, load both, search identically.
func TestFullPersistenceRoundTrip(t *testing.T) {
	c, queries, _ := buildCorpus(t, 300, 10, 92)
	ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 12, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cPath := filepath.Join(dir, "collection.bin")
	iPath := filepath.Join(dir, "index.bin")
	if err := SaveCollection(cPath, c); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(iPath); err != nil {
		t.Fatal(err)
	}

	c2, err := LoadCollection(cPath)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := LoadIndex(iPath, c2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:5] {
		a, err := ix.Search(q, SearchOptions{K: 5, L: 100})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix2.Search(q, SearchOptions{K: 5, L: 100})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatal("restored system searches differently")
			}
		}
	}
}

// WriteCollection must emit the v4 magic, and the v4 loader must adopt
// the vector block as one arena that the collection's shared store views
// directly (no per-object re-copy).
func TestCollectionWritesV4ArenaFormat(t *testing.T) {
	c, _, _ := buildCorpus(t, 20, 3, 90)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:8]); got != "MUSTCL4\n" {
		t.Fatalf("magic = %q, want MUSTCL4", got)
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range got.Dims() {
		total += d
	}
	st := got.flatStore()
	if st == nil {
		t.Fatal("v4 load did not install a store")
	}
	// The whole corpus must live in one contiguous arena run, and the
	// store's row/modality views must alias it rather than copy.
	var runs [][]float32
	if err := st.Runs(func(run []float32) error { runs = append(runs, run); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || len(runs[0]) != got.Len()*total {
		t.Fatalf("v4 load produced %d arena runs, want 1 full run", len(runs))
	}
	arena := runs[0]
	if &st.Row(3)[0] != &arena[3*total] {
		t.Fatal("store rows do not alias the adopted arena")
	}
	off := 3 * total
	for m := 0; m < got.Modalities(); m++ {
		v := st.Modality(3, m)
		if &v[0] != &arena[off] {
			t.Fatalf("modality %d view does not alias the arena", m)
		}
		off += len(v)
	}
}

// legacyStream re-encodes a written v4 stream in an older format:
// version 3 keeps the layout but narrows the object count to uint32;
// versions 2 and 1 share v3's byte layout (v1 additionally drops the
// names section).
func legacyStream(t *testing.T, raw []byte, version int) []byte {
	t.Helper()
	if string(raw[:8]) != "MUSTCL4\n" {
		t.Fatalf("unexpected magic %q", raw[:8])
	}
	m := int(binary.LittleEndian.Uint32(raw[8:]))
	// Walk the names section: m × (len uint32, bytes).
	off := 12 + 4*m
	namesStart := off
	for i := 0; i < m; i++ {
		off += 4 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	namesEnd := off
	n := binary.LittleEndian.Uint64(raw[off:])
	block := raw[off+8:]

	var out bytes.Buffer
	out.WriteString("MUSTCL")
	out.WriteByte(byte('0' + version))
	out.WriteByte('\n')
	out.Write(raw[8 : 12+4*m])
	if version >= 2 {
		out.Write(raw[namesStart:namesEnd])
	}
	if err := binary.Write(&out, binary.LittleEndian, uint32(n)); err != nil {
		t.Fatal(err)
	}
	out.Write(block)
	return out.Bytes()
}

// Streams in the three legacy formats must still load, and every one of
// them must land in an arena-backed store (single-copy even for old
// files).
func TestReadCollectionAcceptsLegacyFormats(t *testing.T) {
	c, _, _ := buildCorpus(t, 30, 3, 89)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, version := range []int{3, 2, 1} {
		got, err := ReadCollection(bytes.NewReader(legacyStream(t, raw, version)))
		if err != nil {
			t.Fatalf("v%d stream rejected: %v", version, err)
		}
		if got.Len() != c.Len() {
			t.Fatalf("v%d load: %d objects, want %d", version, got.Len(), c.Len())
		}
		if got.flatStore() == nil {
			t.Fatalf("v%d load did not land in a shared store", version)
		}
		for id := 0; id < c.Len(); id++ {
			a, _ := c.Object(id)
			b, _ := got.Object(id)
			for i := range a {
				for j := range a[i] {
					if a[i][j] != b[i][j] {
						t.Fatalf("object %d differs between v%d and v4 loads", id, version)
					}
				}
			}
		}
	}
}

// A v3 header claiming an enormous vector block with no data behind it
// must fail with a read error quickly, not attempt the full allocation.
func TestReadCollectionRejectsHugeClaimedBlock(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("MUSTCL3\n")
	for _, v := range []uint32{2, 1 << 16, 1 << 16, 0, 0, 1 << 28} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReadCollection(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("huge claimed block with no data did not error")
	}
}

// The same must hold for v4, whose 64-bit count admits even wilder
// claims: load must never commit memory proportional to the claimed
// header, only to the data that actually arrives.
func TestReadCollectionV4NeverOverAllocates(t *testing.T) {
	mkHeader := func(n uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString("MUSTCL4\n")
		for _, v := range []uint32{2, 1 << 16, 1 << 16, 0, 0} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := binary.Write(&buf, binary.LittleEndian, n); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, n := range []uint64{1 << 27, 1 << 28, 1 << 40, 1 << 62} {
		if _, err := ReadCollection(bytes.NewReader(mkHeader(n))); err == nil {
			t.Errorf("claimed count %d with no data did not error", n)
		}
	}
	runtime.ReadMemStats(&after)
	// Each failed load may commit at most the capped upfront arena
	// (16 MiB); far below the petabytes the headers claim.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<20 {
		t.Errorf("corrupt headers allocated %d bytes total, want bounded by the upfront cap", grew)
	}
}

// An engine file's ID and tombstone tables are sized by an unchecked u32
// object count. A short MUSTEG2 file claiming up to 2^32-1 objects must
// fail with an error, committing memory in proportion to the bytes
// actually delivered rather than to the claim.
func TestReadEngineHugeClaimedObjectCountBounded(t *testing.T) {
	mkFile := func(n uint32) []byte {
		var buf bytes.Buffer
		buf.WriteString("MUSTEG2\n")
		le := func(v any) {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		le(uint32(1))                  // modalities
		le(uint32(5))                  // name length
		buf.WriteString("image")       // name
		le(uint32(8))                  // dim
		le(math.Float32bits(1))        // weight
		le([3]uint32{12, 2, 0})        // gamma, iterations, algorithm
		le(int64(7))                   // seed
		le(uint64(0))                  // next ID
		le(uint64(0))                  // epoch
		le(n)                          // object count
		buf.Write(make([]byte, 1<<10)) // a short tail instead of the tables
		return buf.Bytes()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, n := range []uint32{1<<32 - 1, maxPersistObjects, 1 << 27} {
		if _, err := ReadEngine(bytes.NewReader(mkFile(n))); err == nil {
			t.Errorf("claimed object count %d in a short file did not error", n)
		}
	}
	runtime.ReadMemStats(&after)
	// Each failed load may commit its 1 MiB read buffer and a few 64 KiB
	// chunks; an upfront table would be 1-40 GB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("corrupt engine headers allocated %d bytes total, want bounded by the bytes delivered", grew)
	}
}

func TestReadCollectionRejectsGarbage(t *testing.T) {
	if _, err := ReadCollection(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Error("garbage did not error")
	}
	c, _, _ := buildCorpus(t, 50, 5, 94)
	var buf bytes.Buffer
	if err := WriteCollection(&buf, c); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/3]
	if _, err := ReadCollection(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream did not error")
	}
}

func TestFilteredSearch(t *testing.T) {
	c, queries, _ := buildCorpus(t, 300, 10, 95)
	ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 12, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	// Keep only even object IDs — the attribute-constraint analogue.
	even := func(id int) bool { return id%2 == 0 }
	for _, q := range queries {
		ms, err := ix.Search(q, SearchOptions{K: 5, L: 200, Filter: even})
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 {
			t.Fatal("filtered search returned nothing")
		}
		for _, m := range ms {
			if m.ID%2 != 0 {
				t.Fatalf("filter violated: id %d", m.ID)
			}
		}
	}
}

func TestEarlyTerminationTradeoff(t *testing.T) {
	c, queries, truths := buildCorpus(t, 600, 20, 97)
	ix, err := Build(c, c.UniformWeights(), BuildOptions{Gamma: 14, Seed: 98})
	if err != nil {
		t.Fatal(err)
	}
	recall := func(patience int) float64 {
		hits := 0
		for i, q := range queries {
			ms, err := ix.Search(q, SearchOptions{K: 5, L: 200, Patience: patience})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				if m.ID == truths[i] {
					hits++
					break
				}
			}
		}
		return float64(hits) / float64(len(queries))
	}
	full := recall(0)
	eager := recall(2)
	if eager > full+1e-9 {
		t.Errorf("early termination cannot beat full search: %v vs %v", eager, full)
	}
	if eager < full-0.3 {
		t.Errorf("early termination lost too much recall: %v vs %v", eager, full)
	}
}
