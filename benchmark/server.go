package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one launched formserve process.
type proc struct {
	cmd    *exec.Cmd
	addr   string // base URL, http://127.0.0.1:port
	stderr bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts formserve on port with the given extra flags. The child is
// killed if the benchmark dies, so no server outlives a run.
func launch(bin string, port int, args ...string) (*proc, error) {
	p := &proc{addr: fmt.Sprintf("http://127.0.0.1:%d", port)}
	p.cmd = exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting formserve: %w", err)
	}
	return p, nil
}

// waitReady polls /readyz until the server answers 200.
func (p *proc) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := c.Get(p.addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("formserve %s not ready after %v: %s", p.addr, timeout, p.stderr.String())
}

// stop kills the server and waits for it to exit.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// rssMB reads a process's resident set (VmRSS) in MiB; pid 0 means the
// benchmark itself.
func rssMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in %s", path)
}

// rssSampler tracks the highest summed resident set of a set of processes,
// sampled every 20ms until finish.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
	err  error
}

func sampleRSS(pids []int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		sum := 0.0
		for _, pid := range pids {
			mb, err := rssMB(pid)
			if err != nil {
				s.err = err
				return
			}
			sum += mb
		}
		s.peak = max(s.peak, sum)
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			sample()
			select {
			case <-t.C:
			case <-s.stop:
				sample()
				return
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return s.peak, s.err
}

// newClient is the load generator's HTTP client: at most conns requests in
// flight per server, keep-alive, no compression.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        4 * conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends body and returns the response body on a 200.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// serverMetrics is the part of formserve's /metrics the benchmark reads.
type serverMetrics struct {
	Extractions int64            `json:"formserve_extractions_total"`
	Forwarded   int64            `json:"formserve_forwarded_total"`
	Requests    map[string]int64 `json:"formserve_requests_total"`
	Cache       *struct {
		Hits      int64 `json:"cache_hits"`
		Misses    int64 `json:"cache_misses"`
		Evictions int64 `json:"cache_evictions"`
		Entries   int64 `json:"cache_entries"`
	} `json:"formserve_cache"`
	Cluster *struct {
		HotHits int64 `json:"hot_hits"`
	} `json:"formserve_cluster"`
}

func scrape(c *http.Client, p *proc) (serverMetrics, error) {
	var m serverMetrics
	resp, err := c.Get(p.addr + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decoding %s/metrics: %w", p.addr, err)
	}
	return m, nil
}
