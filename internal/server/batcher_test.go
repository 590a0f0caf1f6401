package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"must"
)

const (
	testImgDim = 24
	testTxtDim = 12
)

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// testEngine builds a small engine; returned queries[i]'s exact top
// match is ids[i] (queries are the stored, normalized vectors).
func testEngine(t testing.TB, n int) (*must.Engine, []must.Query, []int64) {
	t.Helper()
	return testEngineDims(t, n, testImgDim, testTxtDim)
}

// testEngineDims is testEngine over an image+text schema of the given
// dimensions.
func testEngineDims(t testing.TB, n, imgDim, txtDim int) (*must.Engine, []must.Query, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	eng, err := must.NewEngine(must.Schema{
		{Name: "image", Dim: imgDim},
		{Name: "text", Dim: txtDim},
	}, must.EngineOptions{Build: must.BuildOptions{Gamma: 12, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := eng.Insert(must.NamedVectors{
			"image": randVec(rng, imgDim),
			"text":  randVec(rng, txtDim),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	queries := make([]must.Query, 0, 64)
	ids := make([]int64, 0, 64)
	for i := 0; i < 64; i++ {
		id := int64(rng.Intn(n))
		o, err := eng.Object(id)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, must.Query{Vectors: o, K: 3})
		ids = append(ids, id)
	}
	return eng, queries, ids
}

// gatedService wraps an engine so every SearchEach call reports its batch
// size on entered and then blocks until the test lets it through (one
// value on release per call, or close(release) via open for all). A
// held batch keeps the dispatcher busy, so later requests are known to
// be waiting in the queue — no timing window is involved.
type gatedService struct {
	must.Service
	// entered is buffered beyond any test's batch count, so a batch that
	// nobody waits for still reports its size without blocking.
	entered  chan int
	release  chan struct{}
	openOnce sync.Once
}

func newGatedService(eng must.Service) *gatedService {
	return &gatedService{Service: eng, entered: make(chan int, 256), release: make(chan struct{})}
}

// newGatedBatcher starts a batcher over a gated engine. Cleanup opens the
// gate before closing the batcher, so a failed test never leaves the
// dispatcher parked in SearchEach.
func newGatedBatcher(t testing.TB, eng must.Service, maxBatch int, m *Metrics) (*gatedService, *batcher) {
	g := newGatedService(eng)
	b := newBatcher(g, maxBatch, 0, m)
	t.Cleanup(func() {
		g.open()
		b.Close()
	})
	return g, b
}

func (g *gatedService) SearchEach(ctx context.Context, queries []must.Query, workers int) ([]*must.Response, []error) {
	g.entered <- len(queries)
	<-g.release
	return g.Service.SearchEach(ctx, queries, workers)
}

// open lets every held and future SearchEach call through.
func (g *gatedService) open() { g.openOnce.Do(func() { close(g.release) }) }

// nextBatch returns the size of the next batch to enter the engine.
func (g *gatedService) nextBatch(t testing.TB) int {
	t.Helper()
	select {
	case n := <-g.entered:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the engine")
		return 0
	}
}

// waitFor polls until cond holds, failing the test after 10 s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitQueued blocks until n requests wait in the batcher's queue.
func waitQueued(t testing.TB, b *batcher, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d queued requests", n), func() bool { return len(b.in) >= n })
}

type searchResult struct {
	resp *must.Response
	size int
	err  error
}

// submit runs b.Search in the background; the result arrives on the
// returned channel.
func submit(ctx context.Context, b *batcher, q must.Query) <-chan searchResult {
	ch := make(chan searchResult, 1)
	go func() {
		resp, size, err := b.Search(ctx, q)
		ch <- searchResult{resp, size, err}
	}()
	return ch
}

// TestBatcherCoalesces proves concurrent requests actually share
// batches: while one batch is held in the engine, the other 31 clients
// queue behind it and ride the next batch together, so far fewer
// batches than queries dispatch, and every request still gets its own
// right answer.
func TestBatcherCoalesces(t *testing.T) {
	eng, queries, ids := testEngine(t, 500)
	m := NewMetrics()
	g, b := newGatedBatcher(t, eng, 64, m)

	const clients = 32
	var wg sync.WaitGroup
	sawShared := false
	var sharedMu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				i := (c + round*7) % len(queries)
				resp, size, err := b.Search(context.Background(), queries[i])
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if len(resp.Matches) == 0 || resp.Matches[0].ID != ids[i] {
					t.Errorf("client %d round %d: wrong top match %+v, want %d",
						c, round, resp.Matches, ids[i])
					return
				}
				if size > 1 {
					sharedMu.Lock()
					sawShared = true
					sharedMu.Unlock()
				}
			}
		}(c)
	}
	// Hold the first batch until every other client's first request is
	// queued behind it, then let everything run freely.
	waitQueued(t, b, clients-g.nextBatch(t))
	g.open()
	wg.Wait()
	batches, served := m.BatchCounters()
	if served != clients*5 {
		t.Fatalf("served %d queries, want %d", served, clients*5)
	}
	if batches >= served {
		t.Errorf("no coalescing: %d batches for %d queries", batches, served)
	}
	if !sawShared {
		t.Error("no request ever reported riding a shared batch")
	}
}

// TestBatcherDispatchesOnArrival pins the work-conserving policy: a lone
// request against an idle dispatcher rides a batch of its own, and the
// n requests that queue behind a running batch dispatch together as one
// batch of exactly n, split at maxBatch.
func TestBatcherDispatchesOnArrival(t *testing.T) {
	eng, queries, ids := testEngine(t, 300)
	const maxBatch = 4
	g, b := newGatedBatcher(t, eng, maxBatch, NewMetrics())
	ctx := context.Background()

	lone := submit(ctx, b, queries[0])
	if n := g.nextBatch(t); n != 1 {
		t.Fatalf("lone request dispatched in a batch of %d, want 1", n)
	}
	g.release <- struct{}{}
	if r := <-lone; r.err != nil || r.size != 1 || r.resp.Matches[0].ID != ids[0] {
		t.Fatalf("lone request: size %d err %v", r.size, r.err)
	}

	for _, n := range []int{1, 3, maxBatch, maxBatch + 2, 2*maxBatch + 1} {
		head := submit(ctx, b, queries[0])
		if got := g.nextBatch(t); got != 1 {
			t.Fatalf("n=%d: head batch of %d, want 1", n, got)
		}
		queued := make([]<-chan searchResult, n)
		for i := range queued {
			queued[i] = submit(ctx, b, queries[i+1])
		}
		waitQueued(t, b, n)
		g.release <- struct{}{} // the head batch finishes
		if r := <-head; r.err != nil || r.size != 1 {
			t.Fatalf("n=%d: head request size %d err %v", n, r.size, r.err)
		}
		var got, want []int
		for left := n; left > 0; left -= want[len(want)-1] {
			want = append(want, min(left, maxBatch))
		}
		for left := n; left > 0; left -= got[len(got)-1] {
			got = append(got, g.nextBatch(t))
			g.release <- struct{}{}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: queued requests dispatched as batches %v, want %v", n, got, want)
		}
		for i, ch := range queued {
			if r := <-ch; r.err != nil || r.resp.Matches[0].ID != ids[i+1] {
				t.Fatalf("n=%d: queued request %d: err %v", n, i, r.err)
			}
		}
	}
}

// TestBatcherCancellation: a request whose context is cancelled while it
// waits in the queue returns promptly — before the engine finishes the
// batch ahead of it — and its batch companion is unharmed.
func TestBatcherCancellation(t *testing.T) {
	eng, queries, ids := testEngine(t, 500)
	g, b := newGatedBatcher(t, eng, 64, NewMetrics())

	head := submit(context.Background(), b, queries[2])
	g.nextBatch(t) // the engine is now busy; later requests queue
	ctx, cancel := context.WithCancel(context.Background())
	doomed := submit(ctx, b, queries[0])
	waitQueued(t, b, 1)
	companion := submit(context.Background(), b, queries[1])
	waitQueued(t, b, 2)
	cancel()
	// The engine is still held, so an answer now proves the cancelled
	// request did not wait for any batch.
	select {
	case r := <-doomed:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled request returned %v", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled request did not return while the engine was busy")
	}
	g.open()
	if r := <-head; r.err != nil || r.resp.Matches[0].ID != ids[2] {
		t.Fatalf("head request: err %v", r.err)
	}
	// The companion queued in the same batch as the doomed request still
	// succeeds, and the doomed request cost the engine nothing.
	r := <-companion
	if r.err != nil {
		t.Fatalf("companion failed after neighbor cancel: %v", r.err)
	}
	if r.resp.Matches[0].ID != ids[1] {
		t.Fatalf("companion got wrong result %+v, want %d", r.resp.Matches[0], ids[1])
	}
	if r.size != 1 {
		t.Errorf("companion rode a batch of %d, want 1 (cancelled neighbor excluded)", r.size)
	}
}

// TestBatcherPerQueryErrors: an invalid query in a shared batch fails
// alone.
func TestBatcherPerQueryErrors(t *testing.T) {
	eng, queries, ids := testEngine(t, 400)
	g, b := newGatedBatcher(t, eng, 8, NewMetrics())

	head := submit(context.Background(), b, queries[5])
	g.nextBatch(t)
	bad := must.Query{Vectors: must.NamedVectors{"sound": {1, 2, 3}}}
	results := make([]<-chan searchResult, 4)
	for i := range results {
		q := queries[i]
		if i == 2 {
			q = bad
		}
		results[i] = submit(context.Background(), b, q)
	}
	waitQueued(t, b, len(results))
	g.open()
	if r := <-head; r.err != nil {
		t.Fatalf("head request: %v", r.err)
	}
	for i, ch := range results {
		r := <-ch
		if r.size != len(results) {
			t.Errorf("query %d rode a batch of %d, want %d", i, r.size, len(results))
		}
		if i == 2 {
			if r.err == nil {
				t.Error("invalid query succeeded")
			}
			continue
		}
		if r.err != nil {
			t.Errorf("valid query %d poisoned by batch neighbor: %v", i, r.err)
			continue
		}
		if r.resp.Matches[0].ID != ids[i] {
			t.Errorf("query %d: wrong match %+v, want %d", i, r.resp.Matches[0], ids[i])
		}
	}
}

// TestBatcherCloseDrains: Close answers everything already queued, and
// later submits are refused with ErrDraining.
func TestBatcherCloseDrains(t *testing.T) {
	eng, queries, _ := testEngine(t, 400)
	g, b := newGatedBatcher(t, eng, 4, NewMetrics())

	const n = 16
	results := make([]<-chan searchResult, n)
	results[0] = submit(context.Background(), b, queries[0])
	g.nextBatch(t)
	for i := 1; i < n; i++ {
		results[i] = submit(context.Background(), b, queries[i%len(queries)])
	}
	waitQueued(t, b, n-1)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close to refuse new requests", func() bool {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return b.closed
	})
	g.open()
	<-closed
	for i, ch := range results {
		// Every request was queued before Close, so every one is served.
		if r := <-ch; r.err != nil {
			t.Errorf("request %d: %v", i, r.err)
		}
	}
	if _, _, err := b.Search(context.Background(), queries[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close search returned %v, want ErrDraining", err)
	}
	b.Close() // second Close is a no-op
}
