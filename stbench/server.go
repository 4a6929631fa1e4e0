package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// server is one running sthistd process.
type server struct {
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has been waited for
	base  string        // http://127.0.0.1:port
	debug string        // the -debug-addr listener, for /metrics
	log   *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// serverSpec is everything that identifies one sthistd configuration.
type serverSpec struct {
	bin     string
	csv     string
	buckets int
	seed    int64
}

// startServer launches sthistd on dataDir and waits until /readyz answers
// 200. It returns the time from launch to ready: table load, k-d tree,
// MineClus and seeding, or, on an existing directory, recovery.
func startServer(spec serverSpec, dataDir, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	// Durable feedback with an fsync per commit; no timer-driven work inside
	// a run: the checkpoint ticker never fires, drift and trace sampling
	// stay at their defaults (off).
	cmd := exec.Command(spec.bin,
		"-addr", addr,
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", dport),
		"-table", "t="+spec.csv,
		"-buckets", strconv.Itoa(spec.buckets),
		"-seed", strconv.FormatInt(spec.seed, 10),
		"-data-dir", dataDir,
		"-fsync", "always",
		"-checkpoint-interval", "1h",
	)
	cmd.Stdout, cmd.Stderr = lf, lf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		_ = lf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan struct{}), base: "http://" + addr, debug: fmt.Sprintf("http://127.0.0.1:%d", dport), log: lf}
	go func() {
		_ = cmd.Wait() // a SIGKILL exit status is the expected outcome
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 150*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("sthistd not ready after %v (log %s)", time.Since(start), logPath)
		}
		select {
		case <-s.done:
			s.kill()
			return nil, 0, fmt.Errorf("sthistd exited before ready (log %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits for the process to end: the crash that
// recovery has to survive. Safe to call twice.
func (s *server) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill() // fails only once the process is gone
	<-s.done
	_ = s.log.Close()
}

// cpuTime reads the server's CPU time (utime+stime).
func (s *server) cpuTime() (time.Duration, error) { return procCPU(s.cmd.Process.Pid) }

// procCPU reads the CPU time (utime+stime) of a process from /proc.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSSMB reads VmHWM (peak resident set) of pid from /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// conn is one client connection: a transport that keeps a single
// keep-alive socket to the server.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// post sends a pre-encoded JSON body and decodes the JSON answer into out.
func (c *conn) post(path string, body []byte, out any) error {
	resp, err := c.c.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

func (c *conn) get(url string, out any) error {
	resp, err := c.c.Get(url)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	if s, ok := out.(*string); ok {
		*s = string(data)
		return nil
	}
	return json.Unmarshal(data, out)
}

// estimateBody and feedbackBody encode requests before a timed phase, so
// the client's own JSON work stays out of the measured loop.
func estimateBody(q box) []byte {
	b, _ := json.Marshal(map[string]any{"table": "t", "lo": q.lo, "hi": q.hi})
	return b
}

func feedbackBody(q box, actual float64) []byte {
	b, _ := json.Marshal(map[string]any{"table": "t", "lo": q.lo, "hi": q.hi, "actual": actual})
	return b
}

type estimateResp struct {
	Estimate float64 `json:"estimate"`
}

type feedbackResp struct {
	OK  bool   `json:"ok"`
	Seq uint64 `json:"seq"`
}

// serverStats is the part of GET /stats the premise counts use.
type serverStats struct {
	Buckets           int `json:"buckets"`
	TreeDepth         int `json:"tree_depth"`
	Queries           int `json:"queries"`
	Drills            int `json:"drills"`
	Skipped           int `json:"skipped_exact_drills"`
	ParentChildMerges int `json:"parent_child_merges"`
	SiblingMerges     int `json:"sibling_merges"`
	WAL               struct {
		LastSeq uint64 `json:"last_seq"`
	} `json:"wal"`
}

// fsyncs reads the WAL fsync count and total fsync seconds of table t
// from /metrics.
func (s *server) fsyncs(c *conn) (n int, seconds float64, err error) {
	var text string
	if err := c.get(s.debug+"/metrics", &text); err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, `table="t"`) {
			continue
		}
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "sthist_wal_fsync_duration_seconds_count{"):
			n, err = strconv.Atoi(f[len(f)-1])
			found++
		case strings.HasPrefix(line, "sthist_wal_fsync_duration_seconds_sum{"):
			seconds, err = strconv.ParseFloat(f[len(f)-1], 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("no fsync count and sum in /metrics")
	}
	return n, seconds, nil
}

// copyDir copies a flat data directory tree (the WAL layout is two levels).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
