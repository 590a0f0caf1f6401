// Command mustload is a closed-loop load driver for mustd. Each worker
// keeps exactly one request in flight (closed loop), so concurrency is
// the offered parallelism and latency percentiles are honest. It can
// prime an empty daemon (-prime N inserts random objects and triggers
// /v1/rebuild), mix writes into the stream (-write-ratio), and reports
// throughput, error/shed counts, and p50/p95/p99 per phase.
//
//	mustload -addr localhost:7700 -prime 20000 -c 64 -duration 30s
//	mustload -addr localhost:7700 -c 64 -write-ratio 0.05 -no-cache
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type modality struct {
	Name string `json:"name"`
	Dim  int    `json:"dim"`
}

type statsResponse struct {
	Schema  []modality `json:"schema"`
	Objects int        `json:"objects"`
	Built   bool       `json:"built"`
	// Shards is non-empty when the target daemon's engine has S>1 shards.
	Shards []struct {
		State string `json:"state"`
	} `json:"shards"`
	// Engine picks the scan-path fields out of the nested must.Stats:
	// which dot kernel the daemon runs and whether an SQ8 shadow serves
	// the beam search (quantized_bytes > 0).
	Engine struct {
		QuantizedBytes int64  `json:"quantized_bytes"`
		KernelVariant  string `json:"kernel_variant"`
	} `json:"engine"`
}

type searchRequest struct {
	Vectors map[string][]float32 `json:"vectors"`
	K       int                  `json:"k,omitempty"`
	NoCache bool                 `json:"no_cache,omitempty"`
}

type insertRequest struct {
	Vectors map[string][]float32   `json:"vectors,omitempty"`
	Objects []map[string][]float32 `json:"objects,omitempty"`
}

type insertResponse struct {
	IDs []int64 `json:"ids"`
}

func main() {
	var (
		addr       = flag.String("addr", "localhost:7700", "mustd host:port")
		conc       = flag.Int("c", 64, "closed-loop workers (concurrent requests)")
		duration   = flag.Duration("duration", 10*time.Second, "measurement duration")
		k          = flag.Int("k", 10, "results per search")
		prime      = flag.Int("prime", 0, "insert this many random objects and rebuild before measuring")
		writeRatio = flag.Float64("write-ratio", 0, "fraction of requests that are insert+delete pairs")
		noCache    = flag.Bool("no-cache", false, "send no_cache so every search exercises the engine")
		seed       = flag.Int64("seed", 1, "workload randomness seed")
		retries    = flag.Int("retries", 4, "retry a 429-shed request up to this many times, honoring Retry-After (0 = count every 429 as shed)")
		retryCap   = flag.Duration("retry-cap", 2*time.Second, "upper bound on a single retry backoff sleep")
	)
	flag.Parse()
	if err := run(*addr, *conc, *duration, *k, *prime, *writeRatio, *noCache, *seed, *retries, *retryCap); err != nil {
		fmt.Fprintf(os.Stderr, "mustload: %v\n", err)
		os.Exit(1)
	}
}

type client struct {
	base string
	hc   *http.Client
	// maxRetries bounds 429 retries per request; retryCap bounds each
	// backoff sleep; retried counts retry sleeps across all workers.
	maxRetries int
	retryCap   time.Duration
	retried    atomic.Int64
}

// do issues one request and reports the status code plus the server's
// Retry-After hint (zero when absent or unparseable).
func (c *client) do(path string, body, out any) (int, time.Duration, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	var retryAfter time.Duration
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
		retryAfter = time.Duration(s) * time.Second
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, retryAfter, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, retryAfter, fmt.Errorf("%s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return resp.StatusCode, retryAfter, json.Unmarshal(data, out)
	}
	return resp.StatusCode, retryAfter, nil
}

// post retries 429-shed requests with capped jittered backoff. The
// server's Retry-After hint (when present) replaces the exponential
// base, and every sleep is jittered to 50-100% of the target so a fleet
// of shed workers doesn't come back in lockstep; only a request still
// shed after maxRetries surfaces its 429 to the caller.
func (c *client) post(rng *rand.Rand, path string, body, out any) (int, error) {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		code, retryAfter, err := c.do(path, body, out)
		if err == nil || code != http.StatusTooManyRequests || attempt >= c.maxRetries {
			return code, err
		}
		d := backoff
		if retryAfter > 0 {
			d = retryAfter
		}
		if d > c.retryCap {
			d = c.retryCap
		}
		time.Sleep(time.Duration(float64(d) * (0.5 + 0.5*rng.Float64())))
		c.retried.Add(1)
		backoff *= 2
	}
}

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func randObject(rng *rand.Rand, schema []modality) map[string][]float32 {
	o := make(map[string][]float32, len(schema))
	for _, m := range schema {
		o[m.Name] = randVec(rng, m.Dim)
	}
	return o
}

// latencies collects per-request durations across workers.
type latencies struct {
	mu sync.Mutex
	ns []int64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, int64(d))
	l.mu.Unlock()
}

func (l *latencies) percentile(p float64) time.Duration {
	if len(l.ns) == 0 {
		return 0
	}
	i := int(p * float64(len(l.ns)-1))
	return time.Duration(l.ns[i])
}

// report sorts and prints one class's latency line (no-op when the
// class saw no successful requests).
func (l *latencies) report(class string) {
	if len(l.ns) == 0 {
		return
	}
	sort.Slice(l.ns, func(i, j int) bool { return l.ns[i] < l.ns[j] })
	fmt.Printf("%s latency p50 %v  p95 %v  p99 %v  max %v\n", class,
		l.percentile(0.50).Round(time.Microsecond),
		l.percentile(0.95).Round(time.Microsecond),
		l.percentile(0.99).Round(time.Microsecond),
		time.Duration(l.ns[len(l.ns)-1]).Round(time.Microsecond))
}

func run(addr string, conc int, duration time.Duration, k, prime int, writeRatio float64, noCache bool, seed int64, retries int, retryCap time.Duration) error {
	c := &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conc * 2,
				MaxIdleConnsPerHost: conc * 2,
			},
		},
		maxRetries: retries,
		retryCap:   retryCap,
	}

	var st statsResponse
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return fmt.Errorf("is mustd running at %s? %w", addr, err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("parsing /v1/stats: %w", err)
	}
	if len(st.Schema) == 0 {
		return fmt.Errorf("daemon reports an empty schema")
	}
	scan := ""
	if st.Engine.KernelVariant != "" {
		scan = fmt.Sprintf(", kernel=%s", st.Engine.KernelVariant)
	}
	if st.Engine.QuantizedBytes > 0 {
		scan += fmt.Sprintf(", sq8=%.1fMB", float64(st.Engine.QuantizedBytes)/(1<<20))
	}
	if len(st.Shards) > 0 {
		fmt.Printf("target %s: schema %v, %d objects, built=%v, %d shards%s\n", addr, st.Schema, st.Objects, st.Built, len(st.Shards), scan)
	} else {
		fmt.Printf("target %s: schema %v, %d objects, built=%v%s\n", addr, st.Schema, st.Objects, st.Built, scan)
	}

	rng := rand.New(rand.NewSource(seed))
	if prime > 0 {
		fmt.Printf("priming %d objects...\n", prime)
		start := time.Now()
		const chunk = 500
		for done := 0; done < prime; {
			n := chunk
			if prime-done < n {
				n = prime - done
			}
			objs := make([]map[string][]float32, n)
			for i := range objs {
				objs[i] = randObject(rng, st.Schema)
			}
			if _, err := c.post(rng, "/v1/insert", insertRequest{Objects: objs}, nil); err != nil {
				return fmt.Errorf("prime insert: %w", err)
			}
			done += n
		}
		if _, err := c.post(rng, "/v1/rebuild", struct{}{}, nil); err != nil {
			return fmt.Errorf("prime rebuild: %w", err)
		}
		fmt.Printf("primed and built in %v\n", time.Since(start).Round(time.Millisecond))
	}

	// Pre-generate a query pool so workers don't contend on one RNG.
	const poolSize = 4096
	pool := make([]map[string][]float32, poolSize)
	for i := range pool {
		pool[i] = randObject(rng, st.Schema)
	}

	var (
		searches, writes, errs atomic.Int64
		shedReads, shedWrites  atomic.Int64
		lat, wlat              latencies
		wg                     sync.WaitGroup
	)
	deadline := time.Now().Add(duration)
	fmt.Printf("measuring: %d workers, %v, write-ratio %.2f, no_cache=%v\n", conc, duration, writeRatio, noCache)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				if writeRatio > 0 && wrng.Float64() < writeRatio {
					var ir insertResponse
					start := time.Now()
					if code, err := c.post(wrng, "/v1/insert", insertRequest{Vectors: randObject(wrng, st.Schema)}, &ir); err != nil {
						if code == http.StatusTooManyRequests {
							shedWrites.Add(1)
						} else {
							errs.Add(1)
						}
						continue
					}
					wlat.add(time.Since(start))
					start = time.Now()
					if code, err := c.post(wrng, "/v1/delete", map[string][]int64{"ids": ir.IDs}, nil); err != nil {
						if code == http.StatusTooManyRequests {
							shedWrites.Add(1)
						} else {
							errs.Add(1)
						}
						continue
					}
					wlat.add(time.Since(start))
					writes.Add(1)
					continue
				}
				req := searchRequest{Vectors: pool[wrng.Intn(poolSize)], K: k, NoCache: noCache}
				start := time.Now()
				code, err := c.post(wrng, "/v1/search", req, nil)
				if err != nil {
					if code == http.StatusTooManyRequests {
						shedReads.Add(1)
					} else {
						errs.Add(1)
					}
					continue
				}
				lat.add(time.Since(start))
				searches.Add(1)
			}
		}(w)
	}
	wg.Wait()

	total := searches.Load()
	fmt.Printf("\nsearches %d (%.0f/s)  writes %d  retries %d  shed(429) reads %d writes %d  errors %d\n",
		total, float64(total)/duration.Seconds(), writes.Load(), c.retried.Load(),
		shedReads.Load(), shedWrites.Load(), errs.Load())
	lat.report("read ")
	wlat.report("write")
	if errs.Load() > 0 {
		return fmt.Errorf("%d requests errored", errs.Load())
	}
	return nil
}
