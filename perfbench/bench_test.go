package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"must/internal/server"
)

var mustdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mustdBin = filepath.Join(dir, "mustd")
	build := exec.Command("go", "build", "-o", mustdBin, "must/cmd/mustd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "building mustd: %v\n", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeRun(t *testing.T, workload string, traced bool, wrap func(http.RoundTripper) http.RoundTripper) (*result, string) {
	t.Helper()
	res, err := run(context.Background(), config{
		workload: workload, seed: 3, seconds: 1, trace: traced, smoke: true,
		mustd: mustdBin, workdir: t.TempDir(), wrap: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// Every workload prints, as its last line, every end-to-end metric of
// BENCHMARK.json untraced and every per-layer metric traced, each with
// its unit, and nothing else.
func TestSmokePrintsEveryNamedMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				_, printed := smokeRun(t, w.Name, traced, nil)
				lines := strings.Split(strings.TrimSpace(printed), "\n")
				var got struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Attempted == 0 || got.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
						continue
					}
					if g.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got.Metrics), len(want))
				}
			})
		}
	}
}

// corrupter reverses the matches of the tenth search reply, so its
// similarities rise. The first three replies answer the set-ups.
type corrupter struct {
	next     http.RoundTripper
	searches atomic.Int32
}

func (c *corrupter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/search" || c.searches.Add(1) != 10 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, err
	}
	for i, j := 0, len(sr.Matches)-1; i < j; i, j = i+1, j-1 {
		sr.Matches[i], sr.Matches[j] = sr.Matches[j], sr.Matches[i]
	}
	body, err = json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

func TestCorruptReplyTripsTheChecks(t *testing.T) {
	c := &corrupter{}
	res, _ := smokeRun(t, "search-clip768", false, func(rt http.RoundTripper) http.RoundTripper {
		c.next = rt
		return c
	})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a reversed reply passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestCheckSearch(t *testing.T) {
	l := newLedger([]int64{1, 2, 3, 4})
	l.deletedAt[3] = 5 * time.Second
	match := func(ids ...int64) *server.SearchResponse {
		r := &server.SearchResponse{}
		for i, id := range ids {
			r.Matches = append(r.Matches, server.SearchMatch{ID: id, Similarity: float32(10 - i)})
		}
		return r
	}
	rising := match(1, 2)
	rising.Matches[1].Similarity = 20
	for _, c := range []struct {
		name string
		resp *server.SearchResponse
		sent time.Duration
		ok   bool
	}{
		{"good", match(1, 2, 4), 0, true},
		{"deleted after the request", match(3), 4 * time.Second, true},
		{"deleted before the request", match(3), 6 * time.Second, false},
		{"duplicate", match(1, 1), 0, false},
		{"never handed out", match(9), 0, false},
		{"rising similarity", rising, 0, false},
		{"more than k", match(1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2), 0, false},
	} {
		if err := l.checkSearch(c.resp, c.sent); (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}
