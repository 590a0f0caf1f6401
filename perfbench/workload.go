package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"must"
	"must/internal/dataset"
	"must/internal/encoder"
	"must/internal/server"
)

// workload is one traffic mix against one mustd configuration.
type workload struct {
	name    string
	schema  must.Schema
	objects int  // base corpus ingested during set-up
	shards  int  // mustd -shards
	durable bool // mustd -wal at -fsync always

	rate      float64    // offered ops/s of the measured phase (Poisson)
	writes    float64    // share of ops that are writes, half inserts and half deletes
	pool      int        // > 0: searches drawn Zipf-skewed from a pool this size; 0: every search distinct
	override  float64    // share of searches carrying a per-query weight override
	sloRates  [2]float64 // first and highest offered rate probed for search_qps_at_slo
	probeSecs float64    // length of one search_qps_at_slo probe
	inserts   int        // single-object inserts of the insert phase, for mixes without writes
	probes    int        // recall probe queries sent after the load
}

const (
	k           = 10
	ingestChunk = 256 // objects per set-up /v1/insert request
	setupRuns   = 3   // set-ups per run; setup_s is their median
	warmSeconds = 1.0 // open-loop warm-up before every measured phase
	sloMS       = 50  // search p95 limit, in ms, that search_qps_at_slo is measured against
	sloProbes   = 7   // rates probed for search_qps_at_slo
	sloStep     = 1.5 // rate factor between search_qps_at_slo probes until one misses
)

var clip768 = must.Schema{{Name: "image", Dim: 512}, {Name: "text", Dim: 256}}

// workloads are the full-size mixes; smoke shrinks them for the
// benchmark's own tests. Rates sit well below each workload's knee, so
// two connections queue little and the figures repeat from run to run.
var workloads = []workload{
	// The largest bodies and no cache hits: decode, encode and batch
	// wait dominate, and shards and the WAL are off the path.
	{
		name: "search-clip768", schema: clip768, objects: 4096, shards: 1,
		rate: 100, sloRates: [2]float64{400, 2000}, inserts: 800, probes: 200,
	},
	// Small bodies: shard fan-out and merge, Lemma-4 skips and result
	// cache hits and evictions dominate, and decoding is cheap.
	{
		name:    "search-3mod-s4",
		schema:  must.Schema{{Name: "image", Dim: 64}, {Name: "text", Dim: 32}, {Name: "audio", Dim: 48}},
		objects: 16384, shards: 4,
		rate: 400, pool: 16384, override: 0.2, sloRates: [2]float64{1000, 5000}, inserts: 800, probes: 200,
	},
	// The only mix through WAL append, fsync and the insert path, with
	// writers taking the engine lock beside readers.
	{
		name: "churn-durable", schema: clip768, objects: 3072, shards: 1, durable: true,
		rate: 300, writes: 0.3, sloRates: [2]float64{400, 2000}, probes: 200,
	},
}

func findWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		w.probeSecs = 1.5
		if smoke {
			w.probeSecs = 0.3
			w.objects = 300
			w.rate = 100
			w.sloRates = [2]float64{100, 200}
			w.inserts = min(w.inserts, 40)
			w.probes = 20
			if w.pool > 0 {
				w.pool = 256
			}
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// corpus is a workload's generated data: the base objects, a stream of
// further objects for inserts, and a query stream, all in schema order.
type corpus struct {
	base    []must.Object
	extra   []must.Object
	queries []must.Object
	weights []map[string]float32 // per-query override, nil for most
}

// queryBudget is how many queries one run generates: enough for the
// warm-up and measured phases to send distinct ones, plus the probes.
func (w workload) queryBudget(seconds float64, traced bool) int {
	if w.pool > 0 {
		return w.pool + w.probes
	}
	return int(w.rate*(warmSeconds+w.measured(seconds, traced))*1.2) + 64 + w.probes
}

// measured is the length of the measured phases of one run, in seconds.
func (w workload) measured(seconds float64, traced bool) float64 {
	if traced {
		return 2 * seconds
	}
	return seconds
}

// extraBudget bounds how many objects one run can insert.
func (w workload) extraBudget(seconds float64, traced bool) int {
	ops := w.rate * (warmSeconds + w.measured(seconds, traced))
	if traced {
		ops += w.sloRates[1] * w.probeSecs * sloProbes
	}
	return int(ops*w.writes) + w.inserts + 16
}

// generate draws the corpus from the dataset package's clustered
// feature generator and embeds it with simulated encoders at the
// schema's dims. The same seed always yields the same corpus.
func generate(w workload, seed int64, nQueries, nExtra int) (*corpus, error) {
	nObj := w.objects + nExtra
	cfg := dataset.ImageTextN(nObj, seed)
	cfg.NumQueries = nQueries
	raw, err := dataset.GenerateFeature(cfg)
	if err != nil {
		return nil, err
	}
	encs := []encoder.Encoder{
		encoder.New(encoder.Spec{Name: "image", LatentDim: cfg.ContentDim, Dim: w.schema[0].Dim, Sigma: encoder.SigmaResNet50, Seed: seed ^ 0x1a}),
		encoder.New(encoder.Spec{Name: "text", LatentDim: cfg.AttrDim, Dim: w.schema[1].Dim, Sigma: encoder.SigmaLSTM, Seed: seed ^ 0x2b}),
	}
	if len(w.schema) == 3 {
		// The third modality takes its latents from the audio preset's
		// generator, so it is independent of the other two.
		acfg := dataset.AudioTextN(nObj, seed)
		acfg.NumQueries = nQueries
		araw, err := dataset.GenerateFeature(acfg)
		if err != nil {
			return nil, err
		}
		for i := range raw.Objects {
			raw.Objects[i].Latents = append(raw.Objects[i].Latents, araw.Objects[i].Latents[0])
		}
		for i := range raw.Queries {
			raw.Queries[i].Latents = append(raw.Queries[i].Latents, araw.Queries[i].Latents[0])
		}
		raw.M = 3
		encs = append(encs, encoder.New(encoder.Spec{Name: "audio", LatentDim: acfg.ContentDim, Dim: w.schema[2].Dim, Sigma: encoder.SigmaGRU, Seed: seed ^ 0x3c}))
	}
	enc, err := dataset.Encode(raw, dataset.EncoderSet{Unimodal: encs})
	if err != nil {
		return nil, err
	}
	c := &corpus{
		base:    make([]must.Object, w.objects),
		extra:   make([]must.Object, nExtra),
		queries: make([]must.Object, nQueries),
		weights: make([]map[string]float32, nQueries),
	}
	for i, o := range enc.Objects {
		if i < w.objects {
			c.base[i] = o
		} else {
			c.extra[i-w.objects] = o
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x77))
	for i, q := range enc.Queries {
		c.queries[i] = q.Vectors
		if rng.Float64() < w.override {
			c.weights[i] = randomWeights(rng, w.schema)
		}
	}
	return c, nil
}

// randomWeights draws a per-query weight preference (§VIII-F): every
// modality keeps a weight in [0.2, 1).
func randomWeights(rng *rand.Rand, sc must.Schema) map[string]float32 {
	out := make(map[string]float32, len(sc))
	for _, m := range sc {
		out[m.Name] = float32(0.2 + 0.8*rng.Float64())
	}
	return out
}

func named(sc must.Schema, o must.Object) map[string][]float32 {
	out := make(map[string][]float32, len(sc))
	for i, m := range sc {
		out[m.Name] = o[i]
	}
	return out
}

// searchBody is the /v1/search body of query i. Probes bypass the
// result cache so they score the index, not an earlier answer.
func (c *corpus) searchBody(sc must.Schema, i int, noCache bool) []byte {
	return mustJSON(server.SearchRequest{Vectors: named(sc, c.queries[i]), K: k, Weights: c.weights[i], NoCache: noCache})
}

func (c *corpus) query(sc must.Schema, i int) must.Query {
	return must.Query{Vectors: named(sc, c.queries[i]), K: k, Weights: c.weights[i]}
}

func insertBody(sc must.Schema, objs []must.Object) []byte {
	req := server.InsertRequest{Objects: make([]map[string][]float32, len(objs))}
	for i, o := range objs {
		req.Objects[i] = named(sc, o)
	}
	return mustJSON(req)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only plain maps, slices and numbers are marshalled here.
		panic(err)
	}
	return b
}
