// Command perfbench is the repository's end-to-end benchmark. For one
// workload it brings up a real mustd from a generated corpus (set-up),
// drives it open-loop over at most nproc connections, checks every
// answer, and prints the named metrics as the last line of standard
// output:
//
//	perfbench -mustd bin/mustd -workload search-clip768 -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it
// records spans around every HTTP call and every call into an
// in-process replica of the engine, and prints the per-layer metrics
// instead.
// run.sh builds mustd and this command from source and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same corpus, queries and schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.mustd, "mustd", "", "path of the mustd binary")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for WAL files and the trace")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.mustd == "" || cfg.workdir == "" || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -mustd, -workdir and a positive -seconds are required")
		os.Exit(2)
	}
	// Load phases run with the collector off (see runPhase); this limit
	// is the backstop.
	debug.SetMemoryLimit(1 << 30)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult writes the result as one JSON line.
func printResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // tiny corpus and rates, for the benchmark's own tests
	mustd    string
	workdir  string
	// wrap, when set, wraps the load client's transport; the tests use
	// it to corrupt replies.
	wrap func(http.RoundTripper) http.RoundTripper
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload, cfg.smoke)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	b, err := newBench(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.setUp(); err != nil {
		return nil, err
	}
	if err := b.load(); err != nil {
		return nil, err
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   b.led.failedChecks == 0,
		Attempted: b.led.attempted,
		Failed:    b.led.failed(),
		Metrics:   b.metrics,
	}
	for _, p := range b.led.problems {
		fmt.Fprintf(os.Stderr, "perfbench: failed check: %s\n", p)
	}
	if cfg.trace {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
	}
	b.report()
	return res, nil
}

// conns is the connection budget of the load generator: one per CPU.
func conns() int { return runtime.NumCPU() }
