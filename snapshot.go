package must

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"must/internal/shard"
)

// MUSTSH1 snapshot: a small header followed by one embedded shard blob
// (MUSTEG2; MUSTEG1 in older files) per shard, each preceded by its byte
// length. Every Engine, single-shard ones included, saves in this
// format.
//
//	magic   [8]byte  "MUSTSH1\n"
//	shards  uint32   shard count S (1..shard.MaxShards)
//	rr      uint64   round-robin insert cursor
//	S × { size uint64; blob [size]byte }   shard blobs, shard order
//
// The explicit per-blob length exists because a blob reader buffers its
// input (its read-ahead would otherwise consume bytes of the next
// shard); it also lets LoadEngine skip across the file to compute
// section offsets and load every shard in parallel.
//
// A file that is a bare MUSTEG1/2 blob — what single-shard engines saved
// before MUSTSH1 covered them — still loads, as a single-shard Engine.
var shMagic = [8]byte{'M', 'U', 'S', 'T', 'S', 'H', '1', '\n'}

// shHeaderLen is the byte length of the MUSTSH1 header.
const shHeaderLen = len(shMagic) + 4 + 8

// SaveTo serializes the engine — schema, weights, build options, objects,
// IDs, tombstones, and the built graphs — to w in the MUSTSH1 format.
// Each shard snapshots under its own read lock, so saving overlaps
// searches while writes to the shard being saved wait; for a
// point-in-time snapshot across shards, quiesce writes first (the mustd
// drain path does).
func (s *Engine) SaveTo(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var hdr [shHeaderLen]byte
	copy(hdr[:], shMagic[:])
	binary.LittleEndian.PutUint32(hdr[len(shMagic):], uint32(len(s.shards)))
	binary.LittleEndian.PutUint64(hdr[len(shMagic)+4:], s.rr.Load())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for j, e := range s.shards {
		if err := e.writeSizedBlob(w); err != nil {
			return fmt.Errorf("must: shard %d: %w", j, err)
		}
	}
	return nil
}

// writeSizedBlob writes the shard's size prefix and blob. The size comes
// from a first serialization pass into a byte counter, so no blob is
// ever buffered in memory; both passes run under one read lock and so
// see the same state.
func (e *shardEngine) writeSizedBlob(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	size := countingWriter{w: io.Discard}
	if err := e.writeBlobLocked(&size); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(size.n)); err != nil {
		return err
	}
	out := countingWriter{w: w}
	if err := e.writeBlobLocked(&out); err != nil {
		return err
	}
	if out.n != size.n {
		return fmt.Errorf("must: blob wrote %d bytes after sizing %d", out.n, size.n)
	}
	return nil
}

// countingWriter counts the bytes written through it to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Save writes the engine to the file at path.
func (s *Engine) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.SaveTo(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readShardedHeader validates the MUSTSH1 magic and returns (S, rr).
func readShardedHeader(r io.Reader) (int, uint64, error) {
	var hdr [shHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("must: reading snapshot header: %w", err)
	}
	if [8]byte(hdr[:8]) != shMagic {
		return 0, 0, fmt.Errorf("must: bad snapshot magic %q", hdr[:8])
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if err := shard.Validate(int(n)); err != nil {
		return 0, 0, fmt.Errorf("must: %w", err)
	}
	return int(n), binary.LittleEndian.Uint64(hdr[12:]), nil
}

// readBlobSize reads shard j's size prefix from r and checks the size
// against remaining, the bytes left in the input at the prefix (an upper
// bound when the input is a stream). Both loaders walk sections through
// it, so they accept and reject the same sizes; the comparison is done
// in uint64 after the prefix is accounted for, so no size can overflow
// it.
func readBlobSize(r io.Reader, j int, remaining int64) (int64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("must: shard %d: reading blob size: %w", j, err)
	}
	size := binary.LittleEndian.Uint64(b[:])
	if left := max(remaining-8, 0); size > uint64(left) {
		return 0, fmt.Errorf("must: shard %d: blob size %d exceeds the %d bytes remaining", j, size, left)
	}
	return int64(size), nil
}

// blobReader buffers a blob section of the given size, never with more
// memory than the section holds.
func blobReader(r io.Reader, size int64) *bufio.Reader {
	return bufio.NewReaderSize(r, int(min(max(size, 16), 1<<20)))
}

// ReadEngine deserializes an engine written with SaveTo from a stream,
// loading shards one after another. Prefer LoadEngine for files: it
// loads shards in parallel. Bare MUSTEG1/2 snapshots load as a
// single-shard engine.
func ReadEngine(r io.Reader) (*Engine, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	magic, err := br.Peek(len(shMagic))
	if err != nil {
		return nil, fmt.Errorf("must: reading snapshot magic: %w", err)
	}
	if [8]byte(magic) != shMagic {
		return singleShard(readShard(br))
	}
	n, rr, err := readShardedHeader(br)
	if err != nil {
		return nil, err
	}
	parts := make([]*shardEngine, n)
	remaining := int64(math.MaxInt64 - shHeaderLen)
	for j := range parts {
		size, err := readBlobSize(br, j, remaining)
		if err != nil {
			return nil, err
		}
		remaining -= 8 + size
		lr := &io.LimitedReader{R: br, N: size}
		if parts[j], err = readShard(blobReader(lr, size)); err != nil {
			return nil, fmt.Errorf("must: shard %d: %w", j, err)
		}
		// The blob reader's buffering may leave unread bytes inside the
		// section; drain them so the next shard starts aligned.
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("must: shard %d: %w", j, err)
		}
		if lr.N > 0 {
			return nil, fmt.Errorf("must: shard %d: blob ends %d bytes before its declared size %d", j, lr.N, size)
		}
	}
	return assemble(parts, rr)
}

// LoadEngine reads an engine snapshot from the file at path, loading
// MUSTSH1 shards in parallel (each from its own file section). Bare
// MUSTEG1/2 snapshots load as a single-shard engine.
func LoadEngine(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("must: reading snapshot magic: %w", err)
	}
	if magic != shMagic {
		return singleShard(readShard(blobReader(f, fi.Size())))
	}
	n, rr, err := readShardedHeader(f)
	if err != nil {
		return nil, err
	}
	// Walk the size prefixes to compute each shard's file section.
	offsets := make([]int64, n)
	sizes := make([]int64, n)
	off := int64(shHeaderLen)
	for j := 0; j < n; j++ {
		size, err := readBlobSize(io.NewSectionReader(f, off, 8), j, fi.Size()-off)
		if err != nil {
			return nil, err
		}
		offsets[j] = off + 8
		sizes[j] = size
		off += 8 + size
	}
	parts := make([]*shardEngine, n)
	err = shard.Do(n, 0, func(j int) error {
		e, err := readShard(blobReader(io.NewSectionReader(f, offsets[j], sizes[j]), sizes[j]))
		if err != nil {
			return fmt.Errorf("must: shard %d: %w", j, err)
		}
		parts[j] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assemble(parts, rr)
}

// singleShard wraps one shard loaded from a bare blob as an Engine. Its
// insert cursor is irrelevant at S=1; it resumes at the shard's next ID.
func singleShard(e *shardEngine, err error) (*Engine, error) {
	if err != nil {
		return nil, err
	}
	return newEngine(e.schema, e.byName, []*shardEngine{e}, uint64(e.nextID)), nil
}

// assemble wires loaded shards back into an Engine, rejecting blobs
// whose schemas disagree.
func assemble(parts []*shardEngine, rr uint64) (*Engine, error) {
	sc := parts[0].schema
	for j, e := range parts {
		if len(e.schema) != len(sc) {
			return nil, fmt.Errorf("must: shard %d schema has %d modalities, shard 0 has %d", j, len(e.schema), len(sc))
		}
		for i, m := range e.schema {
			if m != sc[i] {
				return nil, fmt.Errorf("must: shard %d schema modality %d (%s/%d) disagrees with shard 0 (%s/%d)",
					j, i, m.Name, m.Dim, sc[i].Name, sc[i].Dim)
			}
		}
	}
	return newEngine(sc, parts[0].byName, parts, rr), nil
}
