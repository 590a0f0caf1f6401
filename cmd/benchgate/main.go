// Command benchgate compares `go test -bench` output against a committed
// baseline (BENCH_BASELINE.json) and fails on performance regressions —
// the CI gate that keeps the fused-kernel search and the parallel build
// from silently slowing down.
//
// Typical use:
//
//	go test -bench=. -benchmem -benchtime=200ms -count=5 ./... | tee bench.txt
//	go run ./cmd/benchgate -input bench.txt            # gate
//	go run ./cmd/benchgate -input bench.txt -update    # refresh baseline
//
// Multiple runs of the same benchmark (-count) are reduced to their
// median, which is what benchstat reports and is robust to one noisy run.
// Only baseline entries marked "gate": true fail the build; everything
// else is recorded for trend visibility. The tolerance (default 20%) can
// be overridden with -tolerance or the BENCH_GATE_TOLERANCE env var.
//
// Besides ns/op, gated benchmarks also gate on B/op and allocs/op when
// the baseline records them (run with -benchmem): a change that keeps
// latency but silently re-introduces a per-query corpus copy or a
// per-candidate allocation fails the build the same way a slowdown does.
// Memory numbers are far more stable than timings, so they share the
// same tolerance with room to spare.
//
// Baselines are tied to the runner that produced them (the "runner"
// field): refresh the baseline whenever the CI runner hardware changes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's baseline record.
type Entry struct {
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are recorded when the input was produced
	// with -benchmem; nil means the metric was absent and is not gated.
	BytesPerOp  *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Gate marks the benchmark as build-failing on regression; ungated
	// entries are informational.
	Gate bool `json:"gate,omitempty"`
}

// Baseline is the committed BENCH_BASELINE.json document.
type Baseline struct {
	Runner       string           `json:"runner"`
	Note         string           `json:"note,omitempty"`
	TolerancePct float64          `json:"tolerance_pct"`
	Benchmarks   map[string]Entry `json:"benchmarks"`
}

// gatedByDefault marks the benchmarks that guard the paper's headline
// claims plus the storage-architecture invariants: single-thread search
// throughput (0 allocs/op steady state), index-build time, index memory
// (graph bytes/edge + single-copy corpus), the MUSTIX2 bulk-load path,
// and the mustd serving pipeline (direct and batched dispatch, and
// whole HTTP requests).
var gatedByDefault = []*regexp.Regexp{
	regexp.MustCompile(`^BenchmarkSearch/flat/`),
	regexp.MustCompile(`^BenchmarkFig6MUSTSearch$`),
	regexp.MustCompile(`^BenchmarkFig7BuildMUST$`),
	regexp.MustCompile(`^BenchmarkFig10BuildOurs$`),
	regexp.MustCompile(`^BenchmarkIndexMemory$`),
	regexp.MustCompile(`^BenchmarkIndexLoad$`),
	regexp.MustCompile(`^BenchmarkServePipeline/`),
	// One /v1/search request through the real handler (decode, batcher,
	// engine, encode) at 36-d and CLIP-scale 768-d.
	regexp.MustCompile(`^BenchmarkServeHTTP/`),
	// Sharded-engine scale path: parallel build and fan-out/merge search.
	// The PR tier (n=16384) lives in BENCH_BASELINE.json; the nightly
	// 256k tier (MUST_SCALE=1) gates against BENCH_BASELINE_SCALE.json.
	regexp.MustCompile(`^BenchmarkShardedBuild/`),
	regexp.MustCompile(`^BenchmarkShardedSearch/`),
	// Dot-kernel microbenchmarks (per runtime variant: go + avx2/neon)
	// and the SQ8 quantized search path against its float32 twin on the
	// CLIP-scale corpus — the pair that backs the ≥1.5× speedup claim.
	regexp.MustCompile(`^BenchmarkKernel/`),
	regexp.MustCompile(`^BenchmarkSearchSQ8/`),
}

// benchLine parses one `go test -bench` result line. Custom ReportMetric
// values print between ns/op and the -benchmem columns, so B/op and
// allocs/op are matched anywhere after ns/op rather than immediately
// adjacent to it.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op)?(?:.*?\s([0-9.]+) allocs/op)?`)

// runs collects the per-run samples of one benchmark's metrics.
type runs struct {
	ns     []float64
	bytes  []float64
	allocs []float64
}

func parseBench(path string) (map[string]*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	out := make(map[string]*runs)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := out[m[1]]
		if r == nil {
			r = &runs{}
			out[m[1]] = r
		}
		r.ns = append(r.ns, ns)
		if m[3] != "" {
			if v, err := strconv.ParseFloat(m[3], 64); err == nil {
				r.bytes = append(r.bytes, v)
			}
		}
		if m[4] != "" {
			if v, err := strconv.ParseFloat(m[4], 64); err == nil {
				r.allocs = append(r.allocs, v)
			}
		}
	}
	return out, sc.Err()
}

// medianOf returns a pointer to the median of xs, or nil when the metric
// was not present in every run (a partial -benchmem signal is not a
// trustworthy baseline).
func medianOf(xs []float64, want int) *float64 {
	if len(xs) == 0 || len(xs) != want {
		return nil
	}
	m := median(xs)
	return &m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func isGatedByDefault(name string) bool {
	for _, re := range gatedByDefault {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

func main() {
	input := flag.String("input", "bench.txt", "path to `go test -bench` output")
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "path to the committed baseline")
	tolerance := flag.Float64("tolerance", 0, "regression tolerance in percent (0 = baseline's tolerance_pct)")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of gating")
	runner := flag.String("runner", "", "runner label recorded on -update (defaults to the existing one)")
	flag.Parse()

	results, err := parseBench(*input)
	if err != nil {
		fatalf("reading %s: %v", *input, err)
	}
	if len(results) == 0 {
		fatalf("no benchmark results found in %s", *input)
	}

	var base Baseline
	raw, err := os.ReadFile(*baselinePath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &base); err != nil {
			fatalf("parsing %s: %v", *baselinePath, err)
		}
	case os.IsNotExist(err) && *update:
		base = Baseline{TolerancePct: 20}
	default:
		fatalf("reading %s: %v", *baselinePath, err)
	}

	if *update {
		// Rebuild the benchmark set from this run: gate flags carry over
		// for surviving names, and entries for renamed or deleted
		// benchmarks are pruned (a stale gated entry would otherwise fail
		// the gate as MISSING forever).
		fresh := make(map[string]Entry, len(results))
		for name, r := range results {
			prev := base.Benchmarks[name]
			// Gate flags carry over, and any benchmark matching the
			// default-gate set is (re)gated — so promoting an existing
			// benchmark to gated only takes a gatedByDefault entry plus a
			// refresh, not a hand edit of the JSON.
			gate := prev.Gate || isGatedByDefault(name)
			fresh[name] = Entry{
				NsPerOp:     median(r.ns),
				BytesPerOp:  medianOf(r.bytes, len(r.ns)),
				AllocsPerOp: medianOf(r.allocs, len(r.ns)),
				Gate:        gate,
			}
		}
		for name := range base.Benchmarks {
			if _, ok := fresh[name]; !ok {
				fmt.Printf("benchgate: pruning stale baseline entry %s\n", name)
			}
		}
		base.Benchmarks = fresh
		if *runner != "" {
			base.Runner = *runner
		}
		if base.Note == "" {
			base.Note = "Median ns/op per benchmark; refresh with: go test -bench=. -benchtime=200ms -count=5 ./... | tee bench.txt && go run ./cmd/benchgate -input bench.txt -update"
		}
		out, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatalf("encoding baseline: %v", err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fatalf("writing %s: %v", *baselinePath, err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(results), *baselinePath)
		return
	}

	tol := base.TolerancePct
	if *tolerance > 0 {
		tol = *tolerance
	}
	if env := os.Getenv("BENCH_GATE_TOLERANCE"); env != "" {
		if v, err := strconv.ParseFloat(env, 64); err == nil && v > 0 {
			tol = v
		}
	}
	if tol <= 0 {
		tol = 20
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	fmt.Fprintf(&sb, "## Benchmark gate (tolerance %.0f%%, runner %q)\n\n", tol, base.Runner)
	sb.WriteString("| benchmark | metric | baseline | current | delta | gated | status |\n")
	sb.WriteString("|---|---|---|---|---|---|---|\n")
	failures := 0
	for _, name := range names {
		e := base.Benchmarks[name]
		r, ok := results[name]
		if !ok {
			status := "missing"
			if e.Gate {
				status = "**MISSING**"
				failures++
			}
			fmt.Fprintf(&sb, "| %s | ns/op | %.0f | — | — | %v | %s |\n", name, e.NsPerOp, e.Gate, status)
			continue
		}
		// One row per recorded metric; each gates independently.
		type metric struct {
			label string
			base  float64
			cur   []float64
		}
		metrics := []metric{{"ns/op", e.NsPerOp, r.ns}}
		if e.BytesPerOp != nil {
			metrics = append(metrics, metric{"B/op", *e.BytesPerOp, r.bytes})
		}
		if e.AllocsPerOp != nil {
			metrics = append(metrics, metric{"allocs/op", *e.AllocsPerOp, r.allocs})
		}
		for _, mt := range metrics {
			if len(mt.cur) == 0 {
				status := "missing metric (run with -benchmem)"
				if e.Gate {
					status = "**MISSING METRIC** (run with -benchmem)"
					failures++
				}
				fmt.Fprintf(&sb, "| %s | %s | %.0f | — | — | %v | %s |\n", name, mt.label, mt.base, e.Gate, status)
				continue
			}
			cur := median(mt.cur)
			var delta float64
			// Zero baseline (e.g. a benchmark that used to allocate
			// nothing): any appearance is an unbounded regression, reported
			// as such rather than as a fabricated percentage.
			unbounded := mt.base == 0 && cur != 0
			if mt.base != 0 {
				delta = (cur - mt.base) / mt.base * 100
			}
			deltaCell := fmt.Sprintf("%+.1f%%", delta)
			if unbounded {
				deltaCell = "+∞ (zero baseline)"
			}
			status := "ok"
			switch {
			case e.Gate && (unbounded || delta > tol):
				status = "**REGRESSION**"
				failures++
			case unbounded || delta > tol:
				status = "slower (ungated)"
			case delta < -tol:
				status = "faster — consider refreshing the baseline"
			}
			fmt.Fprintf(&sb, "| %s | %s | %.0f | %.0f | %s | %v | %s |\n", name, mt.label, mt.base, cur, deltaCell, e.Gate, status)
		}
	}
	report := sb.String()
	fmt.Print(report)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintln(f, report)
			_ = f.Close()
		}
	}
	if failures > 0 {
		fatalf("%d gated benchmark(s) regressed more than %.0f%% against %s", failures, tol, *baselinePath)
	}
	fmt.Println("\nbenchgate: all gated benchmarks within tolerance")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
