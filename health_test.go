package must

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"must/internal/maint"
)

// sickUntilHealed returns a query that panics inside shard `sick` until
// stop() is called — simulating a shard with corrupted state that every
// touch trips over.
func failShard(s *Engine, t *testing.T, sick, shards, times int) {
	t.Helper()
	q := sickShardQuery(shardedQueries(1, 2)[0], sick, shards, func() { panic("shard is sick") })
	for i := 0; i < times; i++ {
		if _, err := s.Search(context.Background(), q); err != nil {
			t.Fatalf("sick-shard search %d must degrade, not fail: %v", i, err)
		}
	}
}

func TestShardQuarantineAfterConsecutivePanics(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	s.ConfigureHealth(HealthConfig{Threshold: 3, Window: time.Minute, Probe: time.Hour})

	// Two failures: degraded, still serving.
	failShard(s, t, 1, S, 2)
	if got := s.ShardHealth()[1]; got != maint.Degraded.String() {
		t.Fatalf("after 2 panics health = %q, want degraded", got)
	}
	// Third consecutive failure trips the breaker.
	failShard(s, t, 1, S, 1)
	if got := s.ShardHealth()[1]; got != maint.Quarantined.String() {
		t.Fatalf("after 3 panics health = %q, want quarantined", got)
	}
	// Health is also visible in ShardStats for /v1/stats.
	if got := s.ShardStats()[1].Health; got != maint.Quarantined.String() {
		t.Fatalf("ShardStats health = %q, want quarantined", got)
	}

	// A quarantined shard is skipped: the panicking filter never runs,
	// the response degrades with an explicit shard error, and matches
	// come only from healthy shards.
	q := sickShardQuery(shardedQueries(1, 2)[0], 1, S, func() { panic("still sick") })
	resp, err := s.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("search with quarantined shard: %v", err)
	}
	if !resp.Partial {
		t.Fatal("Partial not set while a shard is quarantined")
	}
	found := false
	for _, se := range resp.ShardErrors {
		if se.Shard == 1 && strings.Contains(se.Err, "quarantined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("ShardErrors = %+v, want shard 1 quarantined", resp.ShardErrors)
	}
	for _, m := range resp.Matches {
		if int(m.ID)%S == 1 {
			t.Fatalf("match %d came from the quarantined shard", m.ID)
		}
	}

	// Rebuild replaces the blamed state and force-closes the breaker —
	// the automatic re-admission path maintenance uses.
	if err := s.RebuildShard(1); err != nil {
		t.Fatal(err)
	}
	if got := s.ShardHealth()[1]; got != maint.Healthy.String() {
		t.Fatalf("after rebuild health = %q, want healthy", got)
	}
	resp, err = s.Search(context.Background(), Query{Vectors: shardedQueries(1, 2)[0], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatalf("still partial after re-admission: %+v", resp.ShardErrors)
	}
}

// TestShardHealthSuccessResetsCount: failures must be CONSECUTIVE — a
// success between them re-closes the breaker.
func TestShardHealthSuccessResetsCount(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	s.ConfigureHealth(HealthConfig{Threshold: 2, Window: time.Minute, Probe: time.Hour})

	failShard(s, t, 2, S, 1)
	if _, err := s.Search(context.Background(), Query{Vectors: shardedQueries(1, 2)[0], K: 5}); err != nil {
		t.Fatal(err)
	}
	failShard(s, t, 2, S, 1)
	if got := s.ShardHealth()[2]; got == maint.Quarantined.String() {
		t.Fatal("non-consecutive failures quarantined the shard")
	}
}

// TestShardHalfOpenProbeReadmission: after the probe interval, one
// request is admitted to the quarantined shard; if it succeeds the
// shard is healthy again without any rebuild.
func TestShardHalfOpenProbeReadmission(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	s.ConfigureHealth(HealthConfig{Threshold: 2, Window: time.Minute, Probe: 10 * time.Millisecond})

	failShard(s, t, 3, S, 2)
	if got := s.ShardHealth()[3]; got != maint.Quarantined.String() {
		t.Fatalf("health = %q, want quarantined", got)
	}
	time.Sleep(20 * time.Millisecond)
	// The shard recovered (the fault was transient); the probe query
	// succeeds and re-admits it.
	resp, err := s.Search(context.Background(), Query{Vectors: shardedQueries(1, 2)[0], K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatalf("probe search still partial: %+v", resp.ShardErrors)
	}
	if got := s.ShardHealth()[3]; got != maint.Healthy.String() {
		t.Fatalf("after successful probe health = %q, want healthy", got)
	}
}

func TestAllShardsQuarantinedErrors(t *testing.T) {
	const S = 2
	s := newSharded(t, shardedObjects(100, 1), S, true)
	s.ConfigureHealth(HealthConfig{Threshold: 1, Window: time.Minute, Probe: time.Hour})
	// Trip every breaker directly (a query can no longer do this: panics
	// that hit most shards at once are query-correlated and ignored).
	for _, b := range s.health {
		b.Failure(time.Now())
	}
	_, err := s.Search(context.Background(), Query{Vectors: shardedQueries(1, 2)[0], K: 5})
	if !errors.Is(err, ErrAllQuarantined) {
		t.Fatalf("err = %v, want ErrAllQuarantined", err)
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want a quarantine message", err)
	}
}

// TestQueryCorrelatedPanicDoesNotQuarantine: a bad query whose filter
// panics on every shard is the client's fault, not the shards' — even a
// stream of them must not trip any breaker, or one misbehaving client
// would quarantine the whole cluster (sustained read outage).
func TestQueryCorrelatedPanicDoesNotQuarantine(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	s.ConfigureHealth(HealthConfig{Threshold: 1, Window: time.Minute, Probe: time.Hour})
	bad := Query{
		Vectors: shardedQueries(1, 2)[0],
		Filter:  func(id int64) bool { panic("everything is sick") },
		K:       5,
	}
	for i := 0; i < 3; i++ {
		// The query itself still fails (every shard failed it)...
		if _, err := s.Search(context.Background(), bad); err == nil {
			t.Fatalf("all-shards panic %d returned no error", i)
		}
	}
	// ...but no shard is blamed, and good traffic is untouched.
	for j, h := range s.ShardHealth() {
		if h != maint.Healthy.String() {
			t.Fatalf("shard %d health = %q after correlated panics, want healthy", j, h)
		}
	}
	resp, err := s.Search(context.Background(), Query{Vectors: shardedQueries(1, 2)[0], K: 5})
	if err != nil {
		t.Fatalf("good search after correlated panics: %v", err)
	}
	if resp.Partial {
		t.Fatalf("good search degraded after correlated panics: %+v", resp.ShardErrors)
	}
}

// TestCorrelatedTimeoutDoesNotQuarantine: a deadline the whole fan-out
// missed together (overload, caller-chosen tiny budget) is not evidence
// against any shard; only a straggler that missed a deadline most
// shards met is.
func TestCorrelatedTimeoutDoesNotQuarantine(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	s.ConfigureHealth(HealthConfig{Threshold: 1, Window: time.Minute, Probe: time.Hour})
	hang := make(chan struct{})
	defer close(hang)
	q := Query{
		Vectors: shardedQueries(1, 2)[0],
		K:       5,
		Filter:  func(id int64) bool { <-hang; return true },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Search(ctx, q); err == nil {
		t.Fatal("all-shards hang returned no error")
	}
	for j, h := range s.ShardHealth() {
		if h == maint.Quarantined.String() {
			t.Fatalf("shard %d quarantined by a correlated timeout", j)
		}
	}
	resp, err := s.Search(context.Background(), Query{Vectors: shardedQueries(1, 2)[0], K: 5})
	if err != nil {
		t.Fatalf("good search after correlated timeout: %v", err)
	}
	if resp.Partial {
		t.Fatalf("good search degraded after correlated timeout: %+v", resp.ShardErrors)
	}
}

// TestStragglerTimeoutQuarantines: the counterpart — a shard that
// misses a deadline the other shards comfortably met is a true
// straggler and does feed its breaker.
func TestStragglerTimeoutQuarantines(t *testing.T) {
	const S = 4
	s := newSharded(t, shardedObjects(400, 1), S, true)
	s.ConfigureHealth(HealthConfig{Threshold: 1, Window: time.Minute, Probe: time.Hour})
	hang := make(chan struct{})
	defer close(hang)
	q := sickShardQuery(shardedQueries(1, 2)[0], 2, S, func() { <-hang })
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := s.Search(ctx, q); err != nil {
		t.Fatalf("one hanging shard must degrade, not fail: %v", err)
	}
	if got := s.ShardHealth()[2]; got != maint.Quarantined.String() {
		t.Fatalf("straggler shard health = %q, want quarantined", got)
	}
	for j, h := range s.ShardHealth() {
		if j != 2 && h != maint.Healthy.String() {
			t.Fatalf("shard %d health = %q, want healthy", j, h)
		}
	}
}
