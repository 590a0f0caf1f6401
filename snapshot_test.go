package must

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// loadBoth runs data through the stream loader and, over a file at
// path, the parallel file loader.
func loadBoth(t *testing.T, data []byte, path string) (stream *Engine, serr error, file *Engine, ferr error) {
	t.Helper()
	stream, serr = ReadEngine(bytes.NewReader(data))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	file, ferr = LoadEngine(path)
	return stream, serr, file, ferr
}

// TestSnapshotBlobSizeBothLoaders: both loaders walk MUSTSH1 sections
// through one size check, so a declared blob size that cannot fit the
// input — whether it overflows int64 arithmetic or just runs past the
// end — is rejected by both, and an honest one is accepted by both.
func TestSnapshotBlobSizeBothLoaders(t *testing.T) {
	e := newSingle(t, shardedObjects(20, 3), true)
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	real := binary.LittleEndian.Uint64(good[shHeaderLen:])
	withSize := func(size uint64) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[shHeaderLen:], size)
		return b
	}
	cases := []struct {
		name   string
		data   []byte
		accept bool
	}{
		{"honest", good, true},
		{"overflowing size", withSize(1<<63 - 20), false},
		{"size past the end", withSize(real + 100), false},
		{"size short of the blob", withSize(real - 100), false},
		{"max uint64 size", withSize(1<<64 - 1), false},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr, _, ferr := loadBoth(t, tc.data, filepath.Join(dir, "snap.bin"))
			if (serr == nil) != tc.accept {
				t.Errorf("ReadEngine: err = %v, want accept=%v", serr, tc.accept)
			}
			if (ferr == nil) != tc.accept {
				t.Errorf("LoadEngine: err = %v, want accept=%v", ferr, tc.accept)
			}
		})
	}
}

// TestLoadMUSTEG2Snapshot: a bare MUSTEG2 snapshot, as single engines
// saved before every engine wrote MUSTSH1, loads through both loaders as
// a one-shard Engine whose exact search matches a fresh engine over the
// same corpus bit for bit. The file holds shardedObjects(32, 5) with
// IDs 3 and 17 deleted.
func TestLoadMUSTEG2Snapshot(t *testing.T) {
	const path = "testdata/engine_musteg2.bin"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, egMagic2[:]) {
		t.Fatalf("%s is not a bare MUSTEG2 blob", path)
	}
	fresh := newSingle(t, shardedObjects(32, 5), true)
	for _, id := range []int64{3, 17} {
		if err := fresh.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	stream, serr, file, ferr := loadBoth(t, data, filepath.Join(t.TempDir(), "snap.bin"))
	if serr != nil || ferr != nil {
		t.Fatalf("load: stream %v, file %v", serr, ferr)
	}
	for name, e := range map[string]*Engine{"ReadEngine": stream, "LoadEngine": file} {
		if e.ShardCount() != 1 || e.Len() != 30 || e.Deleted() != 2 || e.Epoch() != fresh.Epoch() {
			t.Fatalf("%s: shards=%d len=%d deleted=%d epoch=%d, want 1/30/2/%d",
				name, e.ShardCount(), e.Len(), e.Deleted(), e.Epoch(), fresh.Epoch())
		}
		for qi, v := range shardedQueries(8, 6) {
			q := Query{Vectors: v, K: 10}
			want, err := fresh.ExactSearch(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.ExactSearch(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("%s q=%d: %d vs %d matches", name, qi, len(got.Matches), len(want.Matches))
			}
			for i, m := range got.Matches {
				w := want.Matches[i]
				if m.ID != w.ID || m.Similarity != w.Similarity {
					t.Fatalf("%s q=%d rank %d: (%d,%v) vs fresh (%d,%v)", name, qi, i, m.ID, m.Similarity, w.ID, w.Similarity)
				}
				for mod, x := range w.ByModality {
					if m.ByModality[mod] != x {
						t.Fatalf("%s q=%d rank %d modality %s: %v vs fresh %v", name, qi, i, mod, m.ByModality[mod], x)
					}
				}
			}
		}
		if _, err := e.Search(context.Background(), Query{Vectors: shardedQueries(1, 7)[0], K: 5}); err != nil {
			t.Fatalf("%s: loaded graph does not serve: %v", name, err)
		}
	}
}

// FuzzReadEngine feeds each input to the stream loader and, through a
// file, to the parallel file loader. Neither may panic; they must accept
// or reject together; and when both accept they must agree on the
// engine's shape. The seeds under testdata/fuzz/FuzzReadEngine hold
// S=1 and S=3 snapshots, a bare MUSTEG2 blob, a header claiming 2³²−1
// objects, and two lying MUSTSH1 blob sizes.
func FuzzReadEngine(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		stream, serr, file, ferr := loadBoth(t, data, filepath.Join(dir, "snap.bin"))
		if (serr == nil) != (ferr == nil) {
			t.Fatalf("loaders disagree: ReadEngine err = %v, LoadEngine err = %v", serr, ferr)
		}
		if serr != nil {
			return
		}
		if stream.ShardCount() != file.ShardCount() || stream.Len() != file.Len() ||
			stream.Deleted() != file.Deleted() || stream.Epoch() != file.Epoch() {
			t.Fatalf("loaders disagree: stream shards=%d len=%d deleted=%d epoch=%d, file shards=%d len=%d deleted=%d epoch=%d",
				stream.ShardCount(), stream.Len(), stream.Deleted(), stream.Epoch(),
				file.ShardCount(), file.Len(), file.Deleted(), file.Epoch())
		}
	})
}
