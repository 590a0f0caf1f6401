package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"must/internal/server"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every mainstream Linux build).
const clockTicks = 100

// daemon is one running mustd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

// startDaemon launches mustd on a free localhost port and waits until
// it logs its listen address.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mustd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain the log until exit so mustd never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "mustd listening on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		_ = cmd.Wait() // the exit status is reported through the log tail
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("mustd exited before listening: %s", d.logTail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("mustd did not start listening within 30s")
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than 20s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
}

// cpu returns the daemon's user+sys CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSMB returns the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// call posts body to path and decodes a 200 reply into out.
func call(client *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, b)
	}
	return json.Unmarshal(b, out)
}

// setupResult is one bring-up of the daemon.
type setupResult struct {
	d       *daemon
	ids     []int64 // server IDs of the base objects, in order
	total   time.Duration
	ingest  time.Duration
	buildMS float64
}

// bringUp launches mustd, ingests the corpus, builds the index and
// waits for the first search answered 200. Its total is one setup_s
// sample.
func bringUp(client *http.Client, bin string, args []string, chunks [][]byte, first []byte) (*setupResult, error) {
	start := time.Now()
	d, err := startDaemon(bin, args)
	if err != nil {
		return nil, err
	}
	r := &setupResult{d: d}
	ingestStart := time.Now()
	fail := func(err error) (*setupResult, error) {
		d.stop()
		return nil, err
	}
	for _, c := range chunks {
		var resp server.InsertResponse
		if err := call(client, http.MethodPost, d.base+"/v1/insert", c, &resp); err != nil {
			return fail(err)
		}
		r.ids = append(r.ids, resp.IDs...)
	}
	r.ingest = time.Since(ingestStart)
	var rb server.RebuildResponse
	if err := call(client, http.MethodPost, d.base+"/v1/rebuild", nil, &rb); err != nil {
		return fail(err)
	}
	r.buildMS = rb.TookMS
	var sr server.SearchResponse
	if err := call(client, http.MethodPost, d.base+"/v1/search", first, &sr); err != nil {
		return fail(err)
	}
	r.total = time.Since(start)
	return r, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
