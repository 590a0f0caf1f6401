package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
)

func TestSplitGlobalRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 64} {
		for id := int64(0); id < 1000; id++ {
			s, l := Split(id, n)
			if s < 0 || s >= n {
				t.Fatalf("Split(%d,%d) shard %d out of range", id, n, s)
			}
			if got := Global(s, l, n); got != id {
				t.Fatalf("Global(Split(%d,%d)) = %d", id, n, got)
			}
		}
	}
}

// Sequential global IDs are dense and identical to a single engine's:
// insert k lands at global k.
func TestSequentialInsertIDsAreDense(t *testing.T) {
	const n = 5
	locals := make([]int64, n)
	for k := int64(0); k < 100; k++ {
		s := int(k % n) // round-robin insertion order
		if got := Global(s, locals[s], n); got != k {
			t.Fatalf("insert %d: global %d", k, got)
		}
		locals[s]++
	}
}

func TestValidate(t *testing.T) {
	for _, n := range []int{1, 2, MaxShards} {
		if err := Validate(n); err != nil {
			t.Errorf("Validate(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, -1, MaxShards + 1} {
		if err := Validate(n); err == nil {
			t.Errorf("Validate(%d) accepted", n)
		}
	}
}

func TestMergeTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		lists := make([][]float64, 1+rng.Intn(6))
		var all []float64
		for i := range lists {
			m := rng.Intn(20)
			l := make([]float64, m)
			for j := range l {
				l[j] = rng.NormFloat64()
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(l)))
			lists[i] = l
			all = append(all, l...)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		k := 1 + rng.Intn(15)
		got := MergeTopK(lists, k, func(a, b float64) bool { return a > b })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: merge[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMergeTopKDeterministicTies(t *testing.T) {
	type scored struct {
		list  int
		score float64
	}
	lists := [][]scored{
		{{0, 1.0}, {0, 0.5}},
		{{1, 1.0}, {1, 0.5}},
	}
	got := MergeTopK(lists, 4, func(a, b scored) bool { return a.score > b.score })
	wantLists := []int{0, 1, 0, 1} // equal scores resolve to the lower list
	for i, w := range wantLists {
		if got[i].list != w {
			t.Fatalf("tie order: got %v", got)
		}
	}
}

func TestMergeTopKEdgeCases(t *testing.T) {
	gt := func(a, b int) bool { return a > b }
	if got := MergeTopK[int](nil, 5, gt); len(got) != 0 {
		t.Errorf("nil lists: %v", got)
	}
	if got := MergeTopK([][]int{{3, 2}, {}}, 0, gt); got != nil {
		t.Errorf("k=0: %v", got)
	}
	if got := MergeTopK([][]int{{3, 2}}, 10, gt); len(got) != 2 {
		t.Errorf("k beyond total: %v", got)
	}
}

// k reaches MergeTopK straight from a client's search request: a huge
// k must merge like k = Σ len and allocate for the elements, not for k.
func TestMergeTopKHugeKBounded(t *testing.T) {
	gt := func(a, b int) bool { return a > b }
	lists := [][]int{{9, 5, 1}, {8, 7}, {}, {6}}
	want := MergeTopK(lists, 6, gt)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := MergeTopK(lists, 1<<40, gt)
	runtime.ReadMemStats(&after)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("k=1<<40 merged %v, k=Σlen merged %v", got, want)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<16 {
		t.Fatalf("k=1<<40 allocated %d bytes for 6 elements", d)
	}
}

func TestDoRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var count atomic.Int64
		seen := make([]atomic.Bool, 37)
		if err := Do(37, workers, func(i int) error {
			seen[i].Store(true)
			count.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if count.Load() != 37 {
			t.Fatalf("workers=%d: ran %d of 37", workers, count.Load())
		}
		for i := range seen {
			if !seen[i].Load() {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}
}

func TestDoReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("a")
	for _, workers := range []int{1, 4} {
		err := Do(10, workers, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return fmt.Errorf("b")
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want lowest-indexed error", workers, err)
		}
	}
	if err := Do(0, 4, func(int) error { return errA }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}
