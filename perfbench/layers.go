package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"must"
	"must/internal/server"
)

// decodeSearch decodes a /v1/search body with the handler's decoder
// settings: unknown fields and trailing data are errors.
func decodeSearch(body []byte) (*server.SearchRequest, error) {
	var req server.SearchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after the search body")
	}
	return &req, nil
}

// replica builds an in-process service with the daemon's schema, shard
// count and build options over the base corpus.
func (b *bench) replica(shards int) (must.Service, error) {
	opts := must.EngineOptions{Build: must.BuildOptions{Gamma: 30}}
	var svc must.Service
	var err error
	if shards > 1 {
		svc, err = must.NewShardedEngine(b.w.schema, shards, opts)
	} else {
		svc, err = must.NewEngine(b.w.schema, opts)
	}
	if err != nil {
		return nil, err
	}
	for _, o := range b.c.base {
		if _, err := svc.InsertObject(o); err != nil {
			return nil, err
		}
	}
	return svc, svc.Build()
}

// layers fills the per-layer metrics of a traced run: the traced
// phase's replies, plus spans around calls into in-process replicas fed
// the traced phase's bodies, queries and writes.
func (b *bench) layers() error {
	p := b.traced
	tr := b.tr

	svc, err := b.replica(b.w.shards)
	if err != nil {
		return err
	}
	var single must.Service
	if b.w.shards > 1 {
		if single, err = b.replica(1); err != nil {
			return err
		}
	}
	var plain must.Service
	var durable *must.DurableService
	if b.w.durable {
		// Two more replicas fed the same inserts, one behind a WAL at
		// fsync=always: their difference is the WAL append and fsync.
		if plain, err = b.replica(1); err != nil {
			return err
		}
		inner, err := b.replica(1)
		if err != nil {
			return err
		}
		dir := filepath.Join(b.cfg.workdir, "replica-wal")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if durable, _, err = must.OpenDurable(inner, dir, must.DurableOptions{Fsync: "always"}); err != nil {
			return err
		}
		// The replica's WAL is scratch: a failed close loses nothing.
		defer durable.Close()
	}

	var decode, encode, call, callSingle, ins, del, walSync, gap, query, wait, engine, batch []float64
	var hops, evals, skips []float64
	var reqBytes, respBytes []float64
	// The layer budget is drawn over uncached searches only, since a
	// cache hit skips the batcher and the engine.
	var missLatency, missGap, missDecode, missEncode []float64
	cached, searches := 0, 0
	insert := func(o op, req int) error {
		obj := b.c.extra[o.ref]
		var err error
		ins = append(ins, us(tr.time("replica.insert", 0, req, func() { _, err = svc.InsertObject(obj) })))
		if err != nil || durable == nil {
			return err
		}
		dPlain := tr.time("replica.insert_plain", 0, req, func() { _, err = plain.InsertObject(obj) })
		if err != nil {
			return err
		}
		dDurable := tr.time("replica.insert_durable", 0, req, func() { _, err = durable.InsertObject(obj) })
		walSync = append(walSync, us(dDurable-dPlain))
		return err
	}
	for i, o := range p.ops {
		req := p.reqBase + i
		r := p.out[i]
		switch o.kind {
		case opSearch:
			var sreq *server.SearchRequest
			dDecode := tr.time("replica.decode", 0, req, func() { sreq, err = decodeSearch(o.body) })
			if err != nil {
				return fmt.Errorf("decoding a sent search body: %w", err)
			}
			decode = append(decode, us(dDecode))
			q := must.Query{Vectors: sreq.Vectors, K: sreq.K, Weights: sreq.Weights}
			var serr error
			call = append(call, us(tr.time("replica.search", 0, req, func() { _, serr = svc.Search(b.ctx, q) })))
			if serr != nil {
				return serr
			}
			if single != nil {
				callSingle = append(callSingle, us(tr.time("replica.search_single", 0, req, func() { _, serr = single.Search(b.ctx, q) })))
				if serr != nil {
					return serr
				}
			}
			reply := p.replies[i]
			if reply == nil {
				continue
			}
			dEncode := tr.time("replica.encode", 0, req, func() { err = json.NewEncoder(io.Discard).Encode(reply) })
			if err != nil {
				return err
			}
			encode = append(encode, us(dEncode))
			searches++
			reqBytes = append(reqBytes, float64(len(o.body)))
			respBytes = append(respBytes, float64(len(r.body)))
			gapMS := ms(r.done-r.sent) - reply.QueryTimeMS
			gap = append(gap, gapMS)
			query = append(query, reply.QueryTimeMS)
			if reply.Cached {
				cached++
				continue
			}
			missLatency = append(missLatency, ms(r.done-o.at))
			missGap = append(missGap, gapMS)
			missDecode = append(missDecode, us(dDecode))
			missEncode = append(missEncode, us(dEncode))
			engine = append(engine, reply.EngineTimeMS*1000)
			batch = append(batch, float64(reply.BatchSize))
			wait = append(wait, (reply.QueryTimeMS-reply.EngineTimeMS)*1000-us(dDecode))
			hops = append(hops, float64(reply.Stats.Hops))
			evals = append(evals, float64(reply.Stats.FullEvals))
			skips = append(skips, float64(reply.Stats.PartialSkips))
		case opInsert:
			if err := insert(o, req); err != nil {
				return err
			}
		case opDelete:
			// Deletes target base objects, whose IDs the replicas share.
			id := int64(o.ref)
			del = append(del, us(tr.time("replica.delete", 0, req, func() { err = svc.Delete(id) })))
			if err != nil {
				return err
			}
			if durable != nil {
				if err := plain.Delete(id); err != nil {
					return err
				}
				if err := durable.Delete(id); err != nil {
					return err
				}
			}
		}
	}
	// Mixes without writes insert only in the insert phase.
	if b.inserts != nil {
		for i, o := range b.inserts.ops {
			if err := insert(o, b.inserts.reqBase+i); err != nil {
				return err
			}
		}
	}
	if searches == 0 {
		return errors.New("the traced phase answered no search")
	}

	lag := make([]float64, len(p.ops))
	for i, o := range p.ops {
		lag[i] = ms(p.out[i].sent - o.at)
	}
	sumDim := 0
	for _, m := range b.w.schema {
		sumDim += m.Dim
	}
	untraced := median(b.main.latencies(opSearch))
	tracedP50 := median(p.latencies(opSearch))
	fanout := 1.0
	if single != nil {
		fanout = median(call) / median(callSingle)
	}
	walBytes := 0.0
	if n := len(p.latencies(opInsert)); b.w.durable && n > 0 {
		walBytes = float64(p.walBytes) / float64(n)
	}
	skipRatio := 0.0
	if s := mean(skips) + mean(evals); s > 0 {
		skipRatio = mean(skips) / s
	}
	rejected := 0
	for _, r := range p.out {
		if r.status == 429 {
			rejected++
		}
	}
	setup := b.setups[len(b.setups)-1]
	waitP50, engP50 := median(wait), median(engine)
	budget := median(missGap) + (median(missDecode)+waitP50+engP50+median(missEncode))/1000

	b.set("client.search_p99_ms", b.main.windowed(opSearch, 0.99, windows), "ms")
	b.set("client.insert_p99_ms", b.insertPhase().windowed(opInsert, 0.99, windows), "ms")
	b.set("client.search_qps_at_slo", b.qpsAtSLO, "req/s")
	b.set("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms")
	b.set("loadgen.cpu_ms_per_op", ms(p.selfCPU)/float64(len(p.ops)), "ms")
	b.set("net.gap_p50_ms", median(gap), "ms")
	b.set("net.req_bytes_mean", mean(reqBytes), "B")
	b.set("net.resp_bytes_mean", mean(respBytes), "B")
	b.set("server.query_p50_ms", quantile(query, 0.5), "ms")
	b.set("server.query_p99_ms", quantile(query, 0.99), "ms")
	b.set("server.decode_p50_us", median(decode), "us")
	b.set("server.encode_p50_us", median(encode), "us")
	b.set("batcher.batch_size_mean", mean(batch), "count")
	b.set("batcher.wait_p50_us", waitP50, "us")
	b.set("cache.hit_ratio", float64(cached)/float64(searches), "ratio")
	b.set("admission.rejected", float64(rejected), "count")
	b.set("engine.search_p50_us", engP50, "us")
	b.set("engine.search_p99_us", quantile(engine, 0.99), "us")
	b.set("engine.search_call_p50_us", median(call), "us")
	b.set("engine.insert_p50_us", median(ins), "us")
	b.set("engine.delete_p50_us", median(del), "us")
	b.set("engine.ingest_s", setup.ingest.Seconds(), "s")
	b.set("engine.build_s", setup.buildMS/1000, "s")
	b.set("search.hops_mean", mean(hops), "count")
	b.set("search.full_evals_mean", mean(evals), "count")
	b.set("search.partial_skips_mean", mean(skips), "count")
	b.set("search.lemma4_skip_ratio", skipRatio, "ratio")
	b.set("vec.bytes_scanned_per_query", mean(evals)*float64(sumDim)*4, "B")
	b.set("shard.fanout_ratio", fanout, "ratio")
	b.set("shard.size_imbalance", b.imbalance, "ratio")
	b.set("wal.append_sync_p50_us", median(walSync), "us")
	b.set("wal.append_sync_p99_us", quantile(walSync, 0.99), "us")
	b.set("wal.bytes_per_insert", walBytes, "B")
	b.set("trace.overhead_pct", 100*(tracedP50-untraced)/untraced, "%")
	b.set("trace.unattributed_p50_ms", median(missLatency)-budget, "ms")
	return nil
}
