package must

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"must/internal/faultfs"
)

// durableSchema matches the dims used across engine tests but stays
// small so crash-matrix tests can rebuild dozens of engines quickly.
var durableSchema = Schema{{Name: "image", Dim: 8}, {Name: "text", Dim: 6}}

func durableRandObject(rng *rand.Rand) NamedVectors {
	v := make(NamedVectors, len(durableSchema))
	for _, m := range durableSchema {
		x := make([]float32, m.Dim)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		v[m.Name] = x
	}
	return v
}

func newDurableEngine(t *testing.T, shards int) Service {
	t.Helper()
	opts := EngineOptions{Build: BuildOptions{Gamma: 8, Seed: 42}}
	if shards > 1 {
		s, err := NewShardedEngine(durableSchema, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	e, err := NewEngine(durableSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sameCorpus asserts a and b hold identical objects under identical IDs.
func sameCorpus(t *testing.T, a, b Service) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d vs %d", a.Len(), b.Len())
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("Epoch: %d vs %d", a.Epoch(), b.Epoch())
	}
	// Walk IDs 0..nextID looking for live objects on either side.
	for id := int64(0); id < int64(a.Len()+b.Len()+64); id++ {
		av, aerr := a.Object(id)
		bv, berr := b.Object(id)
		if (aerr == nil) != (berr == nil) {
			t.Fatalf("id %d: presence differs (%v vs %v)", id, aerr, berr)
		}
		if aerr != nil {
			continue
		}
		for name, ax := range av {
			bx, ok := bv[name]
			if !ok || len(ax) != len(bx) {
				t.Fatalf("id %d modality %q differs in shape", id, name)
			}
			for i := range ax {
				if ax[i] != bx[i] {
					t.Fatalf("id %d modality %q[%d]: %v vs %v (replay not bit-exact)", id, name, i, ax[i], bx[i])
				}
			}
		}
	}
}

// runWorkload drives the same scripted mutation sequence against a
// service, acking through the returned ack func (nil-safe).
func runWorkload(t *testing.T, svc Service, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		id, err := svc.Insert(durableRandObject(rng))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if err := svc.Build(); err != nil {
		t.Fatal(err)
	}
	// Delete a deterministic quarter, insert a few more, rebuild.
	for i := 0; i < n; i += 4 {
		if err := svc.Delete(ids[i]); err != nil {
			t.Fatalf("delete %d: %v", ids[i], err)
		}
	}
	for i := 0; i < n/8; i++ {
		if _, err := svc.Insert(durableRandObject(rng)); err != nil {
			t.Fatalf("post-build insert %d: %v", i, err)
		}
	}
	if err := svc.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableReplayEquivalence(t *testing.T) {
	// snapshot + WAL replay must reconstruct the exact state of a service
	// that never crashed — same IDs, same bits, same epoch.
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ds, replayed, err := OpenDurable(newDurableEngine(t, shards), filepath.Join(dir, "wal"), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if replayed != 0 {
				t.Fatalf("fresh log replayed %d records", replayed)
			}
			runWorkload(t, ds, 64)
			if err := ds.Close(); err != nil { // "crash": state only in the WAL
				t.Fatal(err)
			}

			ds2, replayed, err := OpenDurable(newDurableEngine(t, shards), filepath.Join(dir, "wal"), DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if replayed == 0 {
				t.Fatal("nothing replayed")
			}
			defer ds2.Close()

			never := newDurableEngine(t, shards)
			runWorkload(t, never, 64)
			sameCorpus(t, ds2, never)
		})
	}
}

func TestDurableCheckpointTruncatesAndSkips(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snap := filepath.Join(dir, "engine.bin")

	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, ds, 32)
	if err := ds.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land only in the (fresh) WAL.
	rng := rand.New(rand.NewSource(99))
	postIDs := make([]int64, 3)
	for i := range postIDs {
		id, err := ds.Insert(durableRandObject(rng))
		if err != nil {
			t.Fatal(err)
		}
		postIDs[i] = id
	}
	preLen := ds.Len()
	preEpoch := ds.Epoch()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: snapshot restore + replay of exactly the 3 tail records.
	eng, err := LoadEngine(snap)
	if err != nil {
		t.Fatal(err)
	}
	ds2, replayed, err := OpenDurable(eng, walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if replayed != 3 {
		t.Fatalf("replayed %d records, want 3 (checkpoint should have truncated the rest)", replayed)
	}
	if ds2.Len() != preLen || ds2.Epoch() != preEpoch {
		t.Fatalf("restored len/epoch %d/%d, want %d/%d", ds2.Len(), ds2.Epoch(), preLen, preEpoch)
	}
	for _, id := range postIDs {
		if _, err := ds2.Object(id); err != nil {
			t.Fatalf("post-checkpoint insert %d lost: %v", id, err)
		}
	}
}

func TestDurablePoisonOnAppendFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.Wrap(faultfs.OS)
	ds, _, err := OpenDurable(newDurableEngine(t, 1), filepath.Join(dir, "wal"), DurableOptions{fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	rng := rand.New(rand.NewSource(1))
	if _, err := ds.Insert(durableRandObject(rng)); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk gone")
	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Err: boom})
	if _, err := ds.Insert(durableRandObject(rng)); !errors.Is(err, boom) {
		t.Fatalf("insert during fault = %v, want wrapped %v", err, boom)
	}
	// Every subsequent mutation is rejected, even though the disk is fine
	// again — the in-memory engine is ahead of the log and accepting more
	// writes would make replay diverge.
	if _, err := ds.Insert(durableRandObject(rng)); err == nil {
		t.Fatal("poisoned service accepted an insert")
	}
	if err := ds.Delete(0); err == nil {
		t.Fatal("poisoned service accepted a delete")
	}
}

func TestDurableFailedInsertNotLogged(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ds, _, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Insert(NamedVectors{"image": make([]float32, 8)}); err == nil {
		t.Fatal("insert missing a modality should fail")
	}
	rng := rand.New(rand.NewSource(2))
	if _, err := ds.Insert(durableRandObject(rng)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, replayed, err := OpenDurable(newDurableEngine(t, 1), walDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the failed insert must not be logged)", replayed)
	}
}
