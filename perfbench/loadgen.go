package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

var opPath = [...]string{opSearch: "/v1/search", opInsert: "/v1/insert", opDelete: "/v1/delete"}
var opName = [...]string{opSearch: "search", opInsert: "insert", opDelete: "delete"}

// op is one scheduled request with its body encoded ahead of time.
type op struct {
	kind opKind
	at   time.Duration // scheduled send time, from the phase start
	body []byte
	ref  int // query index (search), extra-object index (insert), server ID (delete)
}

// outcome is what happened to one op. Times are offsets from the
// phase start; latency is done − op.at, so time spent queued behind a
// stalled request is charged to the request that waited.
type outcome struct {
	sent, done time.Duration
	status     int
	body       []byte
	err        error
}

// poisson returns the send times of a Poisson arrival process at rate
// per second over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// newClient returns a keep-alive client that opens at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// drive runs ops open-loop: a dispatcher releases each op at its
// scheduled time and conns workers send them, one request per worker
// at a time. An op that finds every worker busy waits in the queue, and
// that wait counts in its latency. tr, when non-nil, records a span per
// op (queued and on the wire) under one request ID each. It returns
// one outcome per op and the phase start the offsets count from.
func drive(ctx context.Context, client *http.Client, base string, ops []op, conns int, tr *tracer, reqBase int) ([]outcome, time.Time) {
	out := make([]outcome, len(ops))
	// Sized to every op, so the dispatcher never blocks on slow workers.
	queue := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.sent = time.Since(start)
				o.status, o.body, o.err = send(ctx, client, base+opPath[ops[i].kind], ops[i].body)
				o.done = time.Since(start)
				if tr != nil {
					req := reqBase + i
					root := tr.record("op."+opName[ops[i].kind], 0, req, start.Add(ops[i].at), start.Add(o.done))
					tr.record("loadgen.queue", root, req, start.Add(ops[i].at), start.Add(o.sent))
					tr.record("http."+opName[ops[i].kind], root, req, start.Add(o.sent), start.Add(o.done))
				}
			}
		}()
	}
	for i := range ops {
		if d := time.Until(start.Add(ops[i].at)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, start
}

func send(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
