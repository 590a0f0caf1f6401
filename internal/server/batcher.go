package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"must"
)

// ErrDraining is returned to requests that arrive after the server
// began shutting down.
var ErrDraining = errors.New("server draining")

// batcher coalesces concurrent search requests into engine batches. It
// is work-conserving: the dispatcher takes the first queued request,
// adds every request already waiting behind it (up to maxBatch), and
// dispatches at once; it never waits for companions. Requests that
// arrive while a batch is in the engine queue up and ride the next batch
// together, so under load coalescing comes from the queue behind the
// running batch rather than from a clock. One SearchEach call then
// serves the whole batch — the read lock is taken once, each worker
// keeps one pooled searcher hot across its stride, and the fused kernel
// amortizes across requests — which is what turns 64 concurrent HTTP
// requests into a handful of engine calls instead of 64 lock/pool
// round-trips racing each other.
type batcher struct {
	eng      must.Service
	maxBatch int
	workers  int
	// metrics observes batch sizes, queue waits and recovered panics.
	metrics *Metrics

	in   chan *pending
	stop chan struct{}
	done chan struct{}

	mu     sync.RWMutex
	closed bool
}

type pending struct {
	ctx context.Context
	q   must.Query
	// enqueued stamps submission; dispatch observes the queue wait.
	enqueued time.Time
	// out is buffered (capacity 1) so the dispatcher never blocks on a
	// caller that gave up waiting.
	out chan batchResult
}

type batchResult struct {
	resp *must.Response
	size int
	err  error
}

// newBatcher starts the dispatcher goroutine. maxBatch ≤ 0 defaults to
// 64; workers ≤ 0 lets the engine pick.
func newBatcher(eng must.Service, maxBatch, workers int, m *Metrics) *batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	b := &batcher{
		eng:      eng,
		maxBatch: maxBatch,
		workers:  workers,
		metrics:  m,
		in:       make(chan *pending, 4*maxBatch),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// Search submits one query and waits for its slot of the coalesced
// batch. It returns the engine response, the size of the batch the
// query rode in, and an error. Cancellation of ctx returns promptly
// even while the batch is still computing; the abandoned slot is
// discarded by the dispatcher without blocking it.
func (b *batcher) Search(ctx context.Context, q must.Query) (*must.Response, int, error) {
	p := &pending{ctx: ctx, q: q, enqueued: time.Now(), out: make(chan batchResult, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, 0, ErrDraining
	}
	// Submitting under the read lock pairs with Close's write lock:
	// once closed is set, no new pending can enter b.in, so the final
	// drain below cannot strand a request.
	select {
	case b.in <- p:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		// Queue full: the server is past its coalescing capacity.
		// Admission control upstream should make this rare; fail fast
		// rather than block the client behind an unbounded queue.
		return nil, 0, ErrOverloaded
	}
	select {
	case r := <-p.out:
		return r.resp, r.size, r.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// ErrOverloaded is returned when the batch queue is full.
var ErrOverloaded = errors.New("server overloaded")

// Close stops accepting requests, serves everything already queued, and
// waits for the dispatcher to exit. Safe to call once.
func (b *batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
}

func (b *batcher) run() {
	defer close(b.done)
	for {
		select {
		case first := <-b.in:
			b.dispatch(b.collect(append(make([]*pending, 0, b.maxBatch), first)))
		case <-b.stop:
			b.drain()
			return
		}
	}
}

// collect appends every request already queued to batch, up to
// maxBatch, without waiting for more to arrive.
func (b *batcher) collect(batch []*pending) []*pending {
	for len(batch) < b.maxBatch {
		select {
		case p := <-b.in:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// drain serves whatever was queued before Close flipped the flag.
func (b *batcher) drain() {
	for {
		batch := b.collect(make([]*pending, 0, b.maxBatch))
		if len(batch) == 0 {
			return
		}
		b.dispatch(batch)
	}
}

// dispatch answers one coalesced batch with a single SearchEach call.
// Requests whose context is already dead are answered immediately and
// excluded, so one cancelled client neither wastes engine work nor
// poisons the rest of the batch.
func (b *batcher) dispatch(batch []*pending) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.out <- batchResult{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	b.metrics.ObserveBatch(len(live))
	now := time.Now()
	queries := make([]must.Query, len(live))
	for i, p := range live {
		queries[i] = p.q
		b.metrics.ObserveQueueWait(now.Sub(p.enqueued).Seconds())
	}
	resps, errs := b.searchRecovered(queries)
	for i, p := range live {
		p.out <- batchResult{resp: resps[i], size: len(live), err: errs[i]}
	}
}

// searchRecovered runs the engine call for one batch, converting a
// panic into a per-request error. Without the recover, one poisoned
// query (or engine bug) in a coalesced batch would kill the whole
// daemon from the dispatcher goroutine; with it, only this batch's
// requests see a 500 and the dispatcher keeps serving.
func (b *batcher) searchRecovered(queries []must.Query) (resps []*must.Response, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			b.metrics.ObserveBatchPanic()
			err := fmt.Errorf("batch dispatch panicked: %v", r)
			resps = make([]*must.Response, len(queries))
			errs = make([]error, len(queries))
			for i := range errs {
				errs[i] = err
			}
		}
	}()
	// The batch deliberately runs under its own bounded context, not any
	// request's: a client that cancels mid-batch gets its answer slot
	// dropped (the select in Search already returned), but must not be
	// able to cancel the neighbors it was coalesced with. Engine work per
	// batch is bounded (≤ maxBatch short routing walks), so the deadline
	// is a backstop, not a tuning knob.
	bctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return b.eng.SearchEach(bctx, queries, b.workers)
}
