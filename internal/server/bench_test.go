package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"must"
)

// benchFixture is built once and shared by every sub-benchmark so graph
// construction does not pollute timings.
var (
	benchOnce    sync.Once
	benchEng     *must.Engine
	benchQueries []must.Query

	clipOnce    sync.Once
	clipEng     *must.Engine
	clipQueries []must.Query
)

func benchSetup(b *testing.B) (*must.Engine, []must.Query) {
	b.Helper()
	benchOnce.Do(func() {
		benchEng, benchQueries, _ = testEngine(b, 2000)
	})
	return benchEng, benchQueries
}

// clipSetup is benchSetup at CLIP scale (512+256-d).
func clipSetup(b *testing.B) (*must.Engine, []must.Query) {
	b.Helper()
	clipOnce.Do(func() {
		clipEng, clipQueries, _ = testEngineDims(b, 2000, 512, 256)
	})
	return clipEng, clipQueries
}

// BenchmarkServePipeline measures the serving hot path at high offered
// concurrency: direct is one engine call per request (the -no-batch
// daemon mode); batched coalesces concurrent requests through the
// dynamic batcher exactly as mustd serves them. ns/op is per served
// query.
func BenchmarkServePipeline(b *testing.B) {
	eng, queries := benchSetup(b)

	b.Run("direct", func(b *testing.B) {
		b.SetParallelism(64)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q := queries[i%len(queries)]
				i++
				if _, err := eng.Search(context.Background(), q); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	b.Run("batched", func(b *testing.B) {
		bat := newBatcher(eng, 64, 0, NewMetrics())
		defer bat.Close()
		b.SetParallelism(64)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				q := queries[i%len(queries)]
				i++
				if _, _, err := bat.Search(context.Background(), q); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkServeHTTP measures one /v1/search request at a time through
// the real handler stack (admission, body decode, batcher, engine,
// response encode) with an httptest recorder and the default Config.
// Requests set no_cache, so every one reaches the engine; 768d is the
// CLIP-scale case where decoding the request body is the largest stage
// outside the engine.
func BenchmarkServeHTTP(b *testing.B) {
	for _, bc := range []struct {
		name  string
		setup func(*testing.B) (*must.Engine, []must.Query)
	}{{"36d", benchSetup}, {"768d", clipSetup}} {
		b.Run(bc.name, func(b *testing.B) {
			eng, queries := bc.setup(b)
			s := New(eng, Config{})
			defer s.Close()
			h := s.Handler()
			bodies := make([][]byte, len(queries))
			for i, q := range queries {
				raw, err := json.Marshal(&SearchRequest{Vectors: q.Vectors, K: 10, NoCache: true})
				if err != nil {
					b.Fatal(err)
				}
				bodies[i] = raw
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(bodies[i%len(bodies)])))
				if rec.Code != http.StatusOK {
					b.Fatalf("search: %d %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
