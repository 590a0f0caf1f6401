package main

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonIsSeededAndKeepsItsRate(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := poisson(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d goes back in time", i)
		}
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 10s at 1000/s", n)
	}
}

// A stub that stalls one request for 100ms must charge the stall to the
// requests scheduled behind it, not only to the stalled one: latency
// counts from the scheduled send time.
func TestStallIsChargedToQueuedRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	// One request every 5ms over 300ms on a single connection.
	var ops []op
	for at := time.Duration(0); at < 300*time.Millisecond; at += 5 * time.Millisecond {
		ops = append(ops, op{kind: opSearch, at: at, body: []byte("{}")})
	}
	client := newClient(1)
	out, _ := drive(context.Background(), client, srv.URL, ops, 1, nil, 0)

	stallEnd := out[4].done
	if stallEnd-out[4].sent < stall {
		t.Fatalf("stalled request took %v, want at least %v", stallEnd-out[4].sent, stall)
	}
	queued := 0
	for i := 5; i < len(ops) && ops[i].at < stallEnd; i++ {
		o := ops[i]
		latency, service := out[i].done-o.at, out[i].done-out[i].sent
		// Each request scheduled during the stall waits for it to end.
		if latency < stallEnd-o.at {
			t.Errorf("op %d at %v: latency %v does not include the wait until %v", i, o.at, latency, stallEnd)
		}
		if lag := out[i].sent - o.at; lag < stallEnd-o.at-time.Millisecond {
			t.Errorf("op %d at %v: lag %v, want about %v", i, o.at, lag, stallEnd-o.at)
		}
		// A closed-loop timer would have seen only the short service time.
		if service >= stall/2 {
			t.Errorf("op %d: service time %v should be short", i, service)
		}
		queued++
	}
	if queued < 10 {
		t.Fatalf("only %d requests queued behind the stall", queued)
	}
}

func TestCrossingInterpolatesInLogRate(t *testing.T) {
	rates := []float64{100, 200, 400}
	for _, c := range []struct {
		ys    []float64
		limit float64
		want  float64
	}{
		{[]float64{1, 2, 3}, 2.5, 200 * math.Sqrt2}, // halfway between 200 and 400 in log rate
		{[]float64{1, 2, 3}, 0.5, 100},              // over the limit at the lowest rate
		{[]float64{1, 2, 3}, 9, 400},                // never over the limit
		{[]float64{1, 2, math.Inf(1)}, 2.5, 200},    // a failed probe ends the ladder
	} {
		if got := crossing(rates, c.ys, c.limit); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("crossing(%v, %v) = %v, want %v", c.ys, c.limit, got, c.want)
		}
	}
}
