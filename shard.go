package must

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"must/internal/index"
	"must/internal/search"
	"must/internal/vec"
)

// defaultWorkers caps a batch's default concurrency at GOMAXPROCS.
func defaultWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	return w
}

// ErrNotBuilt is returned by Engine operations that need a built index.
var ErrNotBuilt = errors.New("must: engine index not built (call Build first)")

// ErrUnknownID is wrapped by errors that reference an object ID the
// engine has never handed out (or has already compacted away). Match it
// with errors.Is.
var ErrUnknownID = errors.New("unknown object id")

// shardEngine is one shard of an Engine: a fused proximity-graph index
// over its own arena-backed store, with its own searcher pool and lock.
// It hands out shard-local IDs; the owning Engine maps them to global
// IDs, routes writes, and serializes (re)builds per shard, so every
// Build and Rebuild here runs under the owner's shardMu[j].
//
// Search calls run in parallel with each other (each borrows a searcher
// from the pool), and inserts, deletes and weight changes may come from
// other goroutines at any time. Mutations take the write lock, so they
// briefly block searches; Rebuild does its graph construction off-lock
// and only blocks to swap the new graph in.
//
// Local IDs are stable for the lifetime of the shard, across Rebuild
// compactions included.
type shardEngine struct {
	// schema and byName are shared with the owning Engine and read-only.
	schema Schema
	byName map[string]int

	mu        sync.RWMutex
	c         *Collection
	ix        *Index // nil until Build
	weights   Weights
	build     BuildOptions
	ids       []int64       // ids[internal slot] = local ID
	lookup    map[int64]int // local ID -> internal slot
	nextID    int64
	searchers *sync.Pool // *search.Searcher over the current graph
	// epoch counts result-visible mutations (insert, delete, weight
	// change, build, rebuild). Serving layers key caches on it: any
	// mutation bumps it, invalidating every cached result at once.
	epoch uint64
	// quantize routes searches over the SQ8 shadow store (see
	// EnableQuantization); rerankK is the exact re-rank depth (0 = 4·k).
	quantize bool
	rerankK  int

	// debt caches the maintenance debt — max(overlay ratio, tombstone
	// ratio) — as float64 bits, refreshed under the write lock by
	// updateDebtLocked so the Engine's write admission reads one atomic.
	debt atomic.Uint64
}

// newShardEngine creates an empty shard; w must already match the schema.
func newShardEngine(schema Schema, byName map[string]int, w Weights, bo BuildOptions) *shardEngine {
	c := NewCollection(schema.Dims()...)
	c.names = schema.Names()
	return &shardEngine{
		schema:  schema,
		byName:  byName,
		c:       c,
		weights: append(Weights(nil), w...),
		build:   bo,
		lookup:  make(map[int64]int),
	}
}

// Epoch returns the shard's mutation epoch.
func (e *shardEngine) Epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// debtRatio reads the cached maintenance-debt ratio.
func (e *shardEngine) debtRatio() float64 {
	return math.Float64frombits(e.debt.Load())
}

// InsertObject adds an object and returns its local ID. Before Build it
// only accumulates into the collection; after Build it also links the
// object into the live graph incrementally (§IX dynamic updates).
func (e *shardEngine) InsertObject(o Object) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var slot int
	var err error
	if e.ix == nil {
		slot, err = e.c.Add(o)
	} else {
		slot, err = e.ix.Insert(o)
	}
	if err != nil {
		return 0, err
	}
	id := e.nextID
	e.nextID++
	e.ids = append(e.ids, id)
	e.lookup[id] = slot
	e.epoch++
	if e.ix != nil {
		// Quantize the appended row before the searcher snapshot below;
		// no-op unless quantization is enabled and trained.
		e.c.store.SyncSQ8()
		// The graph and object slice grew; pooled searchers sized to the
		// old vertex count must not be reused.
		e.resetSearchersLocked()
		e.updateDebtLocked()
	}
	return id, nil
}

// Delete tombstones an object by local ID (§IX): excluded from all
// future results, still routing until the next Rebuild. Requires a built
// index.
func (e *shardEngine) Delete(id int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ix == nil {
		return ErrNotBuilt
	}
	slot, ok := e.lookup[id]
	if !ok {
		return fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	if err := e.ix.Delete(slot); err != nil {
		return err
	}
	e.epoch++
	e.updateDebtLocked()
	return nil
}

// Len returns the number of live (non-tombstoned) objects.
func (e *shardEngine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := e.c.Len()
	if e.ix != nil {
		n -= e.ix.Deleted()
	}
	return n
}

// Deleted returns the number of tombstoned objects awaiting Rebuild.
func (e *shardEngine) Deleted() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return 0
	}
	return e.ix.Deleted()
}

// Object returns a copy of a stored object's vectors by modality name.
// Tombstoned objects are unknown: once deleted, an ID stays invisible
// here even though its row still routes until the next Rebuild.
func (e *shardEngine) Object(id int64) (NamedVectors, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	slot, ok := e.lookup[id]
	if !ok || (e.ix != nil && slot < len(e.ix.dead) && e.ix.dead[slot]) {
		return nil, fmt.Errorf("must: %w %d", ErrUnknownID, id)
	}
	out := make(NamedVectors, len(e.schema))
	for i, m := range e.schema {
		out[m.Name] = vec.Clone(e.c.store.Modality(slot, i))
	}
	return out, nil
}

// Weights returns the shard's current per-modality weights.
func (e *shardEngine) Weights() Weights {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append(Weights(nil), e.weights...)
}

// SetWeights replaces the per-modality weights; the caller has validated
// them against the schema.
func (e *shardEngine) SetWeights(w Weights) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.weights = append(Weights(nil), w...)
	e.epoch++
}

// EnableQuantization attaches the SQ8 shadow store; see
// Engine.EnableQuantization.
func (e *shardEngine) EnableQuantization(rerankK int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rerankK = rerankK
	if e.quantize {
		return
	}
	e.quantize = true
	st := e.c.flatStore()
	if st != nil {
		st.EnableSQ8()
		if e.ix != nil {
			st.SyncSQ8()
			e.epoch++
			e.resetSearchersLocked()
		}
	}
}

// Quantized reports whether searches route over the SQ8 shadow store.
func (e *shardEngine) Quantized() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.quantize
}

// Build constructs the fused index over everything inserted so far,
// holding the write lock for the duration.
func (e *shardEngine) Build() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ix != nil {
		return fmt.Errorf("must: engine already built; use Rebuild")
	}
	if e.quantize {
		// The store may not have existed when EnableQuantization ran (it
		// is created lazily on first insert); attach the shadow now so the
		// build trains the quantizer after sealing the graph.
		if st := e.c.flatStore(); st != nil {
			st.EnableSQ8()
		}
	}
	ix, err := Build(e.c, e.weights, e.build)
	if err != nil {
		return err
	}
	e.ix = ix
	e.epoch++
	e.resetSearchersLocked()
	e.updateDebtLocked()
	return nil
}

// Rebuild reconstructs the graph from scratch: tombstoned objects are
// physically dropped (the paper's periodic reconstruction, §IX), the
// current weights become the build weights, and the new graph is
// swapped in atomically. Construction happens on a snapshot without
// blocking concurrent Search/Insert/Delete; inserts and deletes that land
// during construction are replayed before the swap. Local IDs are
// preserved.
func (e *shardEngine) Rebuild() error {
	e.mu.RLock()
	if e.ix == nil {
		e.mu.RUnlock()
		return ErrNotBuilt
	}
	snapLen := e.c.Len()
	// Copy the tombstone bitset and ID prefix under the lock (Delete may
	// flip entries the moment it is released); the store itself only needs
	// a length-pinned snapshot — rows are immutable once appended, so the
	// O(n·dim) compaction copy below can run off-lock without blocking
	// concurrent Search/Insert/Delete. Deletes that land after this
	// snapshot are replayed from the live bitset before the swap.
	dead := append([]bool(nil), e.ix.dead...)
	srcStore := e.c.store.Snapshot()
	idsSnap := append([]int64(nil), e.ids[:snapLen]...)
	w := append(Weights(nil), e.weights...)
	bo := e.build
	quant := e.quantize
	e.mu.RUnlock()

	alive := 0
	for i := 0; i < snapLen; i++ {
		if i < len(dead) && dead[i] {
			continue
		}
		alive++
	}
	if alive == 0 {
		return fmt.Errorf("must: rebuild would leave the engine empty (all %d objects deleted)", snapLen)
	}
	// Compact the live rows into a fresh store — the one real copy a
	// rebuild makes; the old store is dropped at the swap. Rows are
	// copied verbatim (already normalized), preserving bit-exact vectors.
	newC := &Collection{dims: append([]int(nil), e.c.dims...), names: e.schema.Names(),
		store: vec.NewFlatStore(e.c.dims, alive)}
	if quant {
		// Fresh store, fresh shadow: the rebuild's Build call retrains the
		// quantizer over the compacted corpus, shedding any drift from
		// clamped post-training inserts.
		newC.store.EnableSQ8()
	}
	aliveIDs := make([]int64, 0, alive)
	for i := 0; i < snapLen; i++ {
		if i < len(dead) && dead[i] {
			continue
		}
		copy(newC.store.AppendRow(), srcStore.Row(i))
		aliveIDs = append(aliveIDs, idsSnap[i])
	}

	newIx, err := Build(newC, w, bo)
	if err != nil {
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	// Replay inserts that landed while the graph was building.
	for i := snapLen; i < e.c.Len(); i++ {
		if _, err := newIx.Insert(Object(e.c.multi(i))); err != nil {
			return fmt.Errorf("must: rebuild replay of object %d: %w", e.ids[i], err)
		}
		aliveIDs = append(aliveIDs, e.ids[i])
	}
	newLookup := make(map[int64]int, len(aliveIDs))
	for slot, id := range aliveIDs {
		newLookup[id] = slot
	}
	// Replay deletes that landed while the graph was building (including
	// deletes of just-replayed inserts).
	for i, id := range e.ids {
		if i < len(e.ix.dead) && e.ix.dead[i] {
			if slot, ok := newLookup[id]; ok {
				if err := newIx.Delete(slot); err != nil {
					return fmt.Errorf("must: rebuild replay of delete %d: %w", id, err)
				}
			}
		}
	}
	e.c = newC
	e.ix = newIx
	e.ids = aliveIDs
	e.lookup = newLookup
	// Quantize any rows replayed after the off-lock build trained the
	// shadow (no-op when quantization is off).
	e.c.store.SyncSQ8()
	e.epoch++
	e.resetSearchersLocked()
	e.updateDebtLocked()
	return nil
}

// updateDebtLocked refreshes the cached maintenance debt. Callers must
// hold the write lock.
func (e *shardEngine) updateDebtLocked() {
	var debt float64
	if e.ix != nil {
		if n := e.ix.f.Graph.NumVertices(); n > 0 {
			debt = float64(e.ix.f.Graph.OverlayVertices()) / float64(n)
			if t := float64(e.ix.deadCount) / float64(n); t > debt {
				debt = t
			}
		}
	}
	e.debt.Store(math.Float64bits(debt))
}

// resetSearchersLocked replaces the searcher pool after any change to the
// graph topology or object slice. Callers must hold the write lock.
func (e *shardEngine) resetSearchersLocked() {
	f := e.ix.f
	// Snapshot the shared store at the current length, under the write
	// lock: pooled searchers must not observe rows appended by later
	// Inserts (their visit buffers are sized to the vertex count at pool
	// creation; the pool is replaced after every mutation).
	store := f.Store.Snapshot()
	e.searchers = &sync.Pool{New: func() any {
		return search.NewFlat(f.Graph, store, f.Weights)
	}}
}

// convertLocked validates a query against the schema and produces the
// positional multi-vector plus the effective per-modality weights.
// Callers must hold at least the read lock.
func (e *shardEngine) convertLocked(q Query) (vec.Multi, Weights, error) {
	pos := make(Object, len(e.schema))
	for name, v := range q.Vectors {
		i, ok := e.byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("must: query names unknown modality %q (schema has %v)", name, e.schema.Names())
		}
		pos[i] = v
	}
	mv, err := e.c.query(pos)
	if err != nil {
		return nil, nil, err
	}
	w := append(Weights(nil), e.weights...)
	for name, x := range q.Weights {
		i, ok := e.byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("must: weight override names unknown modality %q (schema has %v)", name, e.schema.Names())
		}
		if err := checkFinite([]float32{x}); err != nil {
			return nil, nil, fmt.Errorf("must: weight override for %q: %w", name, err)
		}
		w[i] = x
	}
	active := false
	for i := range w {
		if pos[i] == nil {
			// Missing query modality: force ω_i = 0 (§VII-B) so it
			// neither scores nor steers routing.
			w[i] = 0
		}
		if w[i] != 0 {
			active = true
		}
	}
	if !active {
		return nil, nil, fmt.Errorf("must: query has no active modalities (every modality is missing or zero-weighted)")
	}
	return mv, w, nil
}

// searchOneLocked answers one query on an already-borrowed searcher.
// Callers must hold at least the read lock and must have checked that
// the index is built. The returned Response owns its matches: every
// result row is cloned out of the searcher's reusable buffers before
// returning, so the Response stays valid after the searcher is reused
// or pooled.
func (e *shardEngine) searchOneLocked(ctx context.Context, s *search.Searcher, q Query) (*Response, error) {
	start := time.Now()
	k := q.K
	if k == 0 {
		k = 10
	}
	l := q.L
	if l == 0 {
		l = 4 * k
		if l < 100 {
			l = 100
		}
	}
	mv, w, err := e.convertLocked(q)
	if err != nil {
		return nil, err
	}
	var filter func(int) bool
	if q.Filter != nil {
		ids := e.ids
		filter = func(slot int) bool { return q.Filter(ids[slot]) }
	}
	res, st, err := s.SearchParams(mv, search.Params{
		K:          k,
		L:          l,
		Weights:    vec.Weights(w),
		Filter:     filter,
		Tombstones: e.ix.dead,
		Patience:   q.Patience,
		Optimize:   !q.DisableOptimization,
		Breakdown:  true,
		Quantized:  e.quantize,
		RerankK:    e.rerankK,
		Ctx:        ctx,
	})
	if err != nil {
		return nil, err
	}
	// res aliases the searcher's reusable result buffer, so it must be
	// converted to ScoredMatches before the searcher serves another query
	// (a later search would overwrite it).
	matches := make([]ScoredMatch, len(res))
	for i, r := range res {
		by := make(map[string]float32, len(e.schema))
		for j, m := range e.schema {
			if j < len(r.PerModality) {
				by[m.Name] = r.PerModality[j]
			}
		}
		matches[i] = ScoredMatch{ID: e.ids[r.ID], Similarity: r.IP, ByModality: by}
	}
	return &Response{
		Matches: matches,
		Stats:   SearchStats{FullEvals: st.FullEvals, PartialSkips: st.PartialSkips, Hops: st.Hops},
		Latency: time.Since(start),
	}, nil
}

// Search answers one query on the caller's goroutine with one pooled
// searcher; a panic becomes the query's error, as in SearchEach.
func (e *shardEngine) Search(ctx context.Context, q Query) (*Response, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return nil, ErrNotBuilt
	}
	pool := e.searchers
	s := pool.Get().(*search.Searcher)
	resp, err := e.searchOneRecovered(ctx, &s, pool, q)
	pool.Put(s)
	return resp, err
}

// SearchEach answers many queries concurrently and reports a result or
// an error per query: out[i] and errs[i] describe queries[i], exactly
// one of them non-nil. One failed or cancelled query never poisons the
// rest of the batch.
//
// Each worker borrows one pooled searcher for its whole stride
// (amortizing pool traffic across the batch), the read lock is taken
// once for the batch, and every response is cloned out of
// searcher-owned buffers before return. workers ≤ 0 uses one worker per
// query up to GOMAXPROCS.
func (e *shardEngine) SearchEach(ctx context.Context, queries []Query, workers int) ([]*Response, []error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = defaultWorkers(len(queries))
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	out := make([]*Response, len(queries))
	errs := make([]error, len(queries))
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		for i := range errs {
			errs[i] = ErrNotBuilt
		}
		return out, errs
	}
	pool := e.searchers
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func(wk int) {
			defer wg.Done()
			s := pool.Get().(*search.Searcher)
			for i := wk; i < len(queries); i += workers {
				out[i], errs[i] = e.searchOneRecovered(ctx, &s, pool, queries[i])
			}
			pool.Put(s)
		}(wk)
	}
	wg.Wait()
	return out, errs
}

// errSearchPanicked marks errors produced by recovering a search
// panic. The fan-out uses it to tell shard sickness (panics feed the
// health breaker) from ordinary per-query errors (validation failures,
// which say nothing about shard health).
var errSearchPanicked = errors.New("must: search panicked")

// searchOneRecovered runs one query, converting a panic (e.g. from a
// user-supplied Query.Filter) into that query's error instead of
// killing the process. The panicked searcher's internal state is
// suspect, so it is dropped on the floor and *sp is replaced with a
// fresh one from the pool.
func (e *shardEngine) searchOneRecovered(ctx context.Context, sp **search.Searcher, pool *sync.Pool, q Query) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("%w: %v", errSearchPanicked, r)
			*sp = pool.Get().(*search.Searcher)
		}
	}()
	return e.searchOneLocked(ctx, *sp, q)
}

// ExactSearch answers one query by exhaustive scan (the paper's MUST--).
// It works before Build; tombstones and Query.Filter are honored.
func (e *shardEngine) ExactSearch(ctx context.Context, q Query) (*Response, error) {
	start := time.Now()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("must: %w", err)
		}
	}
	k := q.K
	if k == 0 {
		k = 10
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	mv, w, err := e.convertLocked(q)
	if err != nil {
		return nil, err
	}
	var dead []bool
	if e.ix != nil {
		dead = e.ix.dead
	}
	ids := e.ids
	// evals counts the objects actually scored; TopKFiltered calls keep
	// sequentially, so a plain counter is safe.
	evals := 0
	keep := func(slot int) bool {
		if slot < len(dead) && dead[slot] {
			return false
		}
		if q.Filter != nil && !q.Filter(ids[slot]) {
			return false
		}
		evals++
		return true
	}
	bf := &index.BruteForce{Store: e.c.flatStore(), Weights: vec.Weights(w)}
	res := bf.TopKFiltered(mv, k, keep)
	matches := make([]ScoredMatch, len(res))
	for i, r := range res {
		per := search.Breakdown(vec.Weights(w), mv, e.c.multi(r.ID))
		by := make(map[string]float32, len(e.schema))
		for j, m := range e.schema {
			by[m.Name] = per[j]
		}
		matches[i] = ScoredMatch{ID: ids[r.ID], Similarity: r.IP, ByModality: by}
	}
	return &Response{
		Matches: matches,
		Stats:   SearchStats{FullEvals: evals},
		Latency: time.Since(start),
	}, nil
}

// Stats reports statistics of the shard's current index.
func (e *shardEngine) Stats() (Stats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ix == nil {
		return Stats{}, ErrNotBuilt
	}
	return e.ix.Stats(), nil
}
