// Package shard holds the engine-agnostic mechanics of the sharded
// corpus: the stable-ID ↔ (shard, local) routing arithmetic, the k-way
// merge that combines per-shard top-k lists, and a bounded worker pool
// for running per-shard work in parallel.
//
// The package deliberately knows nothing about engines, queries, or
// results — it operates on IDs, sorted slices, and closures — so both
// the public must package and any future distribution layer can share
// one tested implementation of the partitioning math.
package shard

import (
	"fmt"
	"runtime"
	"sync"
)

// MaxShards bounds the shard count a sharded engine (and the MUSTSH1
// container format) accepts. The limit is far above any sensible
// configuration — shards cost per-shard graphs and searcher pools, so
// useful S values are small multiples of the core count — and exists so
// a corrupt persistence header cannot demand an absurd allocation.
const MaxShards = 4096

// Validate rejects shard counts outside [1, MaxShards].
func Validate(n int) error {
	if n < 1 || n > MaxShards {
		return fmt.Errorf("shard count %d out of range [1,%d]", n, MaxShards)
	}
	return nil
}

// Split routes a stable global ID to its owning shard and the ID the
// object carries inside that shard. The mapping is pure arithmetic —
// shard = id mod n, local = id div n — so routing needs no lookup
// table, no lock, and survives save/load byte-for-byte.
func Split(id int64, n int) (shard int, local int64) {
	return int(id % int64(n)), id / int64(n)
}

// Global is the inverse of Split: the stable global ID of a shard-local
// ID. Globals handed out by sequential inserts are exactly the dense
// sequence 0,1,2,… (insert k lands in shard k mod n with local k div n),
// which is what makes IDs independent of the shard count for the same
// insertion order.
func Global(shard int, local int64, n int) int64 {
	return local*int64(n) + int64(shard)
}

// MergeTopK merges up to k best elements out of several independently
// sorted lists (each sorted best-first under better) using a k-way
// tournament over the list heads. Ties across lists resolve to the
// lower list index, so the merge is deterministic for equal scores.
// The result is a fresh slice; the input lists are not modified.
func MergeTopK[T any](lists [][]T, k int, better func(a, b T) bool) []T {
	if k <= 0 {
		return nil
	}
	// heap of (list, pos) ordered by better on the element each cursor
	// points at; index tie-break keeps the merge deterministic.
	type cursor struct {
		list, pos int
	}
	h := make([]cursor, 0, len(lists))
	at := func(c cursor) T { return lists[c.list][c.pos] }
	less := func(a, b cursor) bool {
		av, bv := at(a), at(b)
		if better(av, bv) {
			return true
		}
		if better(bv, av) {
			return false
		}
		return a.list < b.list
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(h) && less(h[l], h[s]) {
				s = l
			}
			if r < len(h) && less(h[r], h[s]) {
				s = r
			}
			if s == i {
				return
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	for li, l := range lists {
		if len(l) > 0 {
			h = append(h, cursor{li, 0})
			up(len(h) - 1)
		}
	}
	// k is caller-supplied (a client's search k): bound the buffer by
	// what the lists hold, not by what was asked for.
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]T, 0, min(k, total))
	for len(h) > 0 && len(out) < k {
		c := h[0]
		out = append(out, at(c))
		if c.pos+1 < len(lists[c.list]) {
			h[0] = cursor{c.list, c.pos + 1}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers ≤ 0 means GOMAXPROCS) and returns the error of the
// lowest-indexed failure, after every started call has finished — a
// failed shard never leaves sibling work running into a torn state.
func Do(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
