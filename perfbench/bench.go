package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"must"
	"must/internal/metrics"
	"must/internal/server"
)

// insertRate is the offered rate of the insert phase, in inserts/s.
const insertRate = 200

// windows is how many stretches a measured phase's latency
// percentiles are taken over before their median is reported.
const windows = 4

// phase is one open-loop stretch of traffic and what it cost.
type phase struct {
	reqBase   int // request ID of ops[0]; op i is request reqBase+i
	ops       []op
	out       []outcome
	replies   []*server.SearchResponse // checked search replies, aligned with ops
	daemonCPU time.Duration
	selfCPU   time.Duration
	walBytes  int64
}

// bench is the state of one run.
type bench struct {
	ctx    context.Context
	cfg    config
	w      workload
	c      *corpus
	client *http.Client
	args   []string
	walDir string
	chunks [][]byte
	t0     time.Time

	setups []*setupResult
	d      *daemon
	led    *ledger
	tr     *tracer
	reqs   int // spans' request IDs, unique across phases

	rng       *rand.Rand
	zipf      *rand.Zipf
	nextQuery int
	nextExtra int
	delQueue  []int64 // base IDs in random order; deletes take them front to back

	main, traced, inserts, probes *phase
	qpsAtSLO                      float64
	recall                        float64
	peakRSS                       float64
	imbalance                     float64

	metrics map[string]metric
}

func newBench(ctx context.Context, cfg config, w workload) (*bench, error) {
	start := time.Now()
	c, err := generate(w, cfg.seed, w.queryBudget(cfg.seconds, cfg.trace), w.extraBudget(cfg.seconds, cfg.trace))
	if err != nil {
		return nil, err
	}
	b := &bench{ctx: ctx, cfg: cfg, w: w, c: c, rng: rand.New(rand.NewSource(cfg.seed)), metrics: make(map[string]metric)}
	if w.pool > 0 {
		b.zipf = rand.NewZipf(b.rng, 1.1, 1, uint64(w.pool-1))
	}
	for i := 0; i < len(c.base); i += ingestChunk {
		b.chunks = append(b.chunks, insertBody(w.schema, c.base[i:min(i+ingestChunk, len(c.base))]))
	}
	spec := make([]string, len(w.schema))
	for i, m := range w.schema {
		spec[i] = m.Name + ":" + strconv.Itoa(m.Dim)
	}
	b.args = []string{"-schema", strings.Join(spec, ","), "-shards", strconv.Itoa(w.shards)}
	if w.durable {
		b.walDir = filepath.Join(cfg.workdir, "wal")
		b.args = append(b.args, "-wal", b.walDir, "-fsync", "always")
	}
	client := newClient(conns())
	if cfg.wrap != nil {
		client.Transport = cfg.wrap(client.Transport)
	}
	b.client = client
	if cfg.trace {
		b.tr = newTracer()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d objects, %d queries generated in %v\n",
		w.name, cfg.seed, len(c.base)+len(c.extra), len(c.queries), time.Since(start).Round(time.Millisecond))
	return b, nil
}

func (b *bench) close() {
	if b.d != nil {
		b.d.stop()
		b.d = nil
	}
}

// setUp brings the daemon up setupRuns times and keeps the last one.
func (b *bench) setUp() error {
	first := b.c.searchBody(b.w.schema, b.probeQuery(0), true)
	for i := 0; i < setupRuns; i++ {
		if b.walDir != "" {
			if err := os.RemoveAll(b.walDir); err != nil {
				return err
			}
		}
		r, err := bringUp(b.client, b.cfg.mustd, b.args, b.chunks, first)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		b.setups = append(b.setups, r)
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d took %s (ingest %s, build %.0fms)\n",
			i+1, r.total.Round(time.Millisecond), r.ingest.Round(time.Millisecond), r.buildMS)
		if i < setupRuns-1 {
			r.d.stop()
		} else {
			b.d = r.d
		}
	}
	ids := b.setups[len(b.setups)-1].ids
	b.led = newLedger(ids)
	b.delQueue = append([]int64(nil), ids...)
	b.rng.Shuffle(len(b.delQueue), func(i, j int) { b.delQueue[i], b.delQueue[j] = b.delQueue[j], b.delQueue[i] })
	b.t0 = time.Now()
	return nil
}

// probeQuery is the index of the i-th recall probe; probes sit past
// every query the load can draw.
func (b *bench) probeQuery(i int) int { return len(b.c.queries) - b.w.probes + i }

// nextOp draws the op scheduled at at from the workload's mix.
func (b *bench) nextOp(at time.Duration) op {
	if b.w.writes > 0 && b.rng.Float64() < b.w.writes {
		if (b.rng.Float64() < 0.5 || len(b.delQueue) == 0) && b.nextExtra < len(b.c.extra) {
			return b.insertOp(at)
		}
		if len(b.delQueue) > 0 {
			id := b.delQueue[0]
			b.delQueue = b.delQueue[1:]
			return op{kind: opDelete, at: at, ref: int(id), body: mustJSON(server.DeleteRequest{IDs: []int64{id}})}
		}
	}
	if b.zipf != nil {
		q := int(b.zipf.Uint64())
		return op{kind: opSearch, at: at, ref: q, body: b.c.searchBody(b.w.schema, q, false)}
	}
	// Every query is distinct until the generated ones run out, which
	// happens only in the SLO probes; from then on they
	// repeat with the cache lookup bypassed, so the cache still never
	// hits.
	q := b.nextQuery % b.probeQuery(0)
	b.nextQuery++
	return op{kind: opSearch, at: at, ref: q, body: b.c.searchBody(b.w.schema, q, b.nextQuery > b.probeQuery(0))}
}

func (b *bench) insertOp(at time.Duration) op {
	j := b.nextExtra % len(b.c.extra)
	b.nextExtra++
	return op{kind: opInsert, at: at, ref: j, body: insertBody(b.w.schema, b.c.extra[j:j+1])}
}

// schedule draws a Poisson schedule at rate over d with every body
// encoded, so no encoding happens while the phase is timed.
func (b *bench) schedule(rate float64, d time.Duration) []op {
	times := poisson(b.rng, rate, d)
	ops := make([]op, len(times))
	for i, at := range times {
		ops[i] = b.nextOp(at)
	}
	return ops
}

// selfCPU is the generator's own user+sys CPU time, 0 if unreadable.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase sends ops, then checks and accounts every reply.
func (b *bench) runPhase(ops []op, conns int, tr *tracer) (*phase, error) {
	p := &phase{ops: ops, reqBase: b.reqs}
	cpu0, err := b.d.cpu()
	if err != nil {
		return nil, err
	}
	var wal0 int64
	if b.walDir != "" {
		if wal0, err = dirBytes(b.walDir); err != nil {
			return nil, err
		}
	}
	// The generator collects its garbage between phases, not during
	// one, so its own GC never stalls a send; the memory limit set in
	// main still bounds it.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	self0 := selfCPU()
	var start time.Time
	p.out, start = drive(b.ctx, b.client, b.d.base, ops, conns, tr, p.reqBase)
	p.selfCPU = selfCPU() - self0
	debug.SetGCPercent(gc)
	b.reqs += len(ops)
	cpu1, err := b.d.cpu()
	if err != nil {
		return nil, err
	}
	p.daemonCPU = cpu1 - cpu0
	if b.walDir != "" {
		wal1, err := dirBytes(b.walDir)
		if err != nil {
			return nil, err
		}
		p.walBytes = wal1 - wal0
	}
	p.replies = b.led.account(ops, p.out, start.Sub(b.t0))
	return p, b.ctx.Err()
}

// load runs every traffic phase against the live daemon.
func (b *bench) load() error {
	measured := time.Duration(b.cfg.seconds * float64(time.Second))
	warm := time.Duration(warmSeconds * float64(time.Second))
	var err error
	if _, err = b.runPhase(b.schedule(b.w.rate, warm), conns(), nil); err != nil {
		return err
	}
	if b.main, err = b.runPhase(b.schedule(b.w.rate, measured), conns(), nil); err != nil {
		return err
	}
	// The SLO search is reported per layer, so only traced runs pay for
	// it; it runs before the traced phase, against the daemon as the
	// untraced phase left it.
	if b.tr != nil {
		if b.qpsAtSLO, err = b.searchSLO(); err != nil {
			return err
		}
		if b.traced, err = b.runPhase(b.schedule(b.w.rate, measured), conns(), b.tr); err != nil {
			return err
		}
	}
	if b.w.inserts > 0 {
		ops := make([]op, b.w.inserts)
		at := 0.0
		for i := range ops {
			at += b.rng.ExpFloat64() / insertRate
			ops[i] = b.insertOp(time.Duration(at * float64(time.Second)))
		}
		if b.inserts, err = b.runPhase(ops, conns(), nil); err != nil {
			return err
		}
	}
	// Recall probes go one at a time, after every write has been acked.
	ops := make([]op, b.w.probes)
	for i := range ops {
		q := b.probeQuery(i)
		ops[i] = op{kind: opSearch, ref: q, body: b.c.searchBody(b.w.schema, q, true)}
	}
	b.probes, err = b.runPhase(ops, 1, nil)
	return err
}

// searchSLO estimates the highest offered rate whose search p95 stays
// under the workload's limit. Probes start at the workload's first SLO
// rate and grow by sloStep until one misses the limit; the rest bisect
// between the last rate that met it and the first that missed. The
// figure is interpolated in log rate and log p95 between those two, so
// it moves smoothly rather than by whole steps. It is clamped to the
// workload's SLO rates.
func (b *bench) searchSLO() (float64, error) {
	lo, hi := b.w.sloRates[0], b.w.sloRates[1]
	var pass, fail, passP95, failP95 float64
	rate := lo
	for i := 0; i < sloProbes; i++ {
		p95, err := b.sloProbe(rate)
		if err != nil {
			return 0, err
		}
		if p95 <= sloMS {
			pass, passP95 = rate, p95
		} else {
			fail, failP95 = rate, p95
		}
		switch {
		case fail == 0 && rate >= hi:
			return hi, nil
		case fail == 0:
			rate = min(rate*sloStep, hi)
		case pass == 0 && rate <= lo:
			return lo, nil
		case pass == 0:
			rate = max(rate/sloStep, lo)
		default:
			rate = math.Sqrt(pass * fail)
		}
	}
	if pass == 0 {
		return lo, nil
	}
	if fail == 0 {
		return pass, nil
	}
	return crossing([]float64{pass, fail}, []float64{math.Log(passP95), math.Log(failP95)}, math.Log(sloMS)), nil
}

// sloProbe offers rate for one probe and returns its search p95 in ms,
// or +Inf if a search failed. The p95 is the median over the probe's
// three thirds, so one pause inside a probe does not fail it, while a
// backlog that keeps growing fails the middle third and the last.
func (b *bench) sloProbe(rate float64) (float64, error) {
	ops := b.schedule(rate, time.Duration(b.w.probeSecs*float64(time.Second)))
	p, err := b.runPhase(ops, conns(), nil)
	if err != nil {
		return 0, err
	}
	for i, o := range ops {
		if o.kind == opSearch && p.replies[i] == nil {
			return math.Inf(1), nil
		}
	}
	p95 := p.windowed(opSearch, 0.95, 3)
	fmt.Fprintf(os.Stderr, "perfbench: slo probe %.0f/s: search p95 %.2fms\n", rate, p95)
	return p95, nil
}

// crossing interpolates, in log rate, the rate where the non-decreasing
// ys first exceed limit; it returns the lowest rate if they start above
// it and the highest if they never reach it.
func crossing(rates, ys []float64, limit float64) float64 {
	if ys[0] > limit {
		return rates[0]
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] <= limit {
			continue
		}
		f := 0.0
		if !math.IsInf(ys[i], 1) {
			f = (limit - ys[i-1]) / (ys[i] - ys[i-1])
		}
		return math.Exp(math.Log(rates[i-1]) + f*(math.Log(rates[i])-math.Log(rates[i-1])))
	}
	return rates[len(rates)-1]
}

// finish checks the final object count, reads the daemon's peak memory,
// stops it and scores recall.
func (b *bench) finish() error {
	var st server.StatsResponse
	if err := call(b.client, http.MethodGet, b.d.base+"/v1/stats", nil, &st); err != nil {
		return err
	}
	if want := b.led.expectedObjects(); st.Objects != want {
		b.led.fail("/v1/stats reports %d objects, want %d", st.Objects, want)
	}
	b.imbalance = 1
	if len(st.Shards) > 0 {
		lo, hi := math.MaxInt, 0
		for _, s := range st.Shards {
			lo, hi = min(lo, s.Objects), max(hi, s.Objects)
		}
		b.imbalance = float64(hi) / float64(max(lo, 1))
	}
	var err error
	if b.peakRSS, err = b.d.peakRSSMB(); err != nil {
		return err
	}
	b.d.stop()
	b.d = nil
	if b.recall, err = b.scoreRecall(); err != nil {
		return err
	}
	b.endToEnd()
	if b.tr != nil {
		return b.layers()
	}
	return nil
}

// scoreRecall compares each probe's answer with Engine.ExactSearch over
// a copy of the live set.
func (b *bench) scoreRecall() (float64, error) {
	eng, err := must.NewEngine(b.w.schema, must.EngineOptions{})
	if err != nil {
		return 0, err
	}
	var serverID []int64 // replica ID → server ID
	add := func(id int64, o must.Object) error {
		if _, gone := b.led.deletedAt[id]; gone {
			return nil
		}
		if _, err := eng.InsertObject(o); err != nil {
			return err
		}
		serverID = append(serverID, id)
		return nil
	}
	for i, id := range b.setups[len(b.setups)-1].ids {
		if err := add(id, b.c.base[i]); err != nil {
			return 0, err
		}
	}
	ins := make([]int64, 0, len(b.led.inserted))
	for id := range b.led.inserted {
		ins = append(ins, id)
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	for _, id := range ins {
		if err := add(id, b.c.extra[b.led.inserted[id]]); err != nil {
			return 0, err
		}
	}
	var sum float64
	n := 0
	for i, o := range b.probes.ops {
		reply := b.probes.replies[i]
		if reply == nil {
			continue
		}
		exact, err := eng.ExactSearch(b.ctx, b.c.query(b.w.schema, o.ref))
		if err != nil {
			return 0, err
		}
		truth := make([]int, len(exact.Matches))
		for j, m := range exact.Matches {
			truth[j] = int(serverID[m.ID])
		}
		got := make([]int, len(reply.Matches))
		for j, m := range reply.Matches {
			got[j] = int(m.ID)
		}
		sum += metrics.Recall(got, truth)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no recall probe was answered")
	}
	return sum / float64(n), nil
}

// latencies returns the latencies (ms, from the scheduled time) of a
// phase's answered ops of kind; searches count only if they passed
// their checks.
func (p *phase) latencies(kind opKind) []float64 {
	return p.window(kind, 0, math.MaxInt64)
}

// window is latencies restricted to ops scheduled in [from, to).
func (p *phase) window(kind opKind, from, to time.Duration) []float64 {
	var out []float64
	for i, o := range p.ops {
		if o.kind != kind || o.at < from || o.at >= to || p.out[i].err != nil || p.out[i].status != http.StatusOK {
			continue
		}
		if kind == opSearch && p.replies[i] == nil {
			continue
		}
		out = append(out, ms(p.out[i].done-o.at))
	}
	return out
}

// windowed splits the phase into n equal stretches of schedule and
// returns the median over them of each one's q-quantile latency, so one
// stretch disturbed by something outside the benchmark moves the figure
// little.
func (p *phase) windowed(kind opKind, q float64, n int) float64 {
	if len(p.ops) == 0 {
		return 0
	}
	span := p.ops[len(p.ops)-1].at + 1
	var per []float64
	for w := 0; w < n; w++ {
		lat := p.window(kind, span*time.Duration(w)/time.Duration(n), span*time.Duration(w+1)/time.Duration(n))
		if len(lat) > 0 {
			per = append(per, quantile(lat, q))
		}
	}
	return median(per)
}

// completed counts the ops answered 200.
func (p *phase) completed() int {
	n := 0
	for _, o := range p.out {
		if o.err == nil && o.status == http.StatusOK {
			n++
		}
	}
	return n
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// insertPhase is the phase insert latency is taken from: the measured
// phase if its mix writes, else the insert phase.
func (b *bench) insertPhase() *phase {
	if len(b.main.latencies(opInsert)) == 0 && b.inserts != nil {
		return b.inserts
	}
	return b.main
}

// endToEnd fills the end-to-end metrics from the untraced phases.
func (b *bench) endToEnd() {
	fmt.Fprintf(os.Stderr, "perfbench: measured %d searches, %d inserts\n",
		len(b.main.latencies(opSearch)), len(b.insertPhase().latencies(opInsert)))
	if b.tr != nil {
		return
	}
	setup := make([]float64, len(b.setups))
	for i, s := range b.setups {
		setup[i] = s.total.Seconds()
	}
	b.set("setup_s", median(setup), "s")
	b.set("search_p50_ms", b.main.windowed(opSearch, 0.5, windows), "ms")
	b.set("insert_p50_ms", b.insertPhase().windowed(opInsert, 0.5, windows), "ms")
	b.set("recall_at_10", b.recall, "ratio")
	b.set("success_ratio", 1-float64(b.led.failed())/float64(max(b.led.attempted, 1)), "ratio")
	b.set("server_cpu_ms_per_op", ms(b.main.daemonCPU)/float64(max(b.main.completed(), 1)), "ms")
	b.set("peak_rss_mb", b.peakRSS, "MB")
}

// report prints the metrics and, for a traced run, the spans' self
// times, to standard error.
func (b *bench) report() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %12.4f %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	if b.tr == nil {
		return
	}
	self := b.tr.selfTimes()
	spans := make([]string, 0, len(self))
	for n := range self {
		spans = append(spans, n)
	}
	sort.Strings(spans)
	fmt.Fprintf(os.Stderr, "  %-30s %8s %12s %12s\n", "span", "count", "self p50", "self p99")
	for _, n := range spans {
		xs := make([]float64, len(self[n]))
		for i, d := range self[n] {
			xs[i] = us(d)
		}
		fmt.Fprintf(os.Stderr, "  %-30s %8d %10.1fus %10.1fus\n", n, len(xs), quantile(xs, 0.5), quantile(xs, 0.99))
	}
}
