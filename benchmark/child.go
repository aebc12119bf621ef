package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mod"
)

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds cmd/modserve.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "modserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/modserve not found at or above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildDir is where binaries and scratch data go: inside the checkout,
// ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildModserve compiles cmd/modserve from the checkout's source.
func buildModserve(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(buildDir(root), "bin", "modserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/modserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/modserve: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// target is a server under load: the child process or, in a traced
// run, the in-process server.
type target struct {
	base string // http://127.0.0.1:port
	// pid is the child's process id; 0 in process.
	pid int
	// failed reports a panic seen on the child's standard error.
	failed func() error
	stop   func()
}

// child is a running modserve.
type child struct {
	cmd *exec.Cmd
	// mu guards panicLine and tail, which the stderr reader writes.
	mu        sync.Mutex
	panicLine string
	tail      []string
	readDone  chan struct{}
}

// startChild starts modserve on a free port and waits until /healthz
// answers. dataDir, when set, makes the server durable with the fixed
// flush policy of the benchmark: group commit, checkpoint every
// checkpointEvery.
func startChild(ctx context.Context, bin, dataDir string) (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-shards", strconv.Itoa(shards)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-commit", "group", "-checkpoint-every", checkpointEvery.String())
	}
	c := &child{cmd: exec.CommandContext(ctx, bin, args...), readDone: make(chan struct{})}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go c.readStderr(stderr)
	t := &target{base: "http://" + addr, pid: c.cmd.Process.Pid, failed: c.failed, stop: c.kill}
	if err := waitHealthy(ctx, t.base); err != nil {
		c.kill()
		return nil, fmt.Errorf("modserve did not become healthy: %w\n%s", err, c.stderrTail())
	}
	return t, nil
}

func (c *child) readStderr(r io.Reader) {
	defer close(c.readDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		if c.panicLine == "" && (strings.HasPrefix(line, "panic:") || strings.HasPrefix(line, "fatal error:")) {
			c.panicLine = line
		}
		if c.tail = append(c.tail, line); len(c.tail) > 20 {
			c.tail = c.tail[1:]
		}
		c.mu.Unlock()
	}
}

func (c *child) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.panicLine != "" {
		return fmt.Errorf("modserve: %s", c.panicLine)
	}
	return nil
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// kill ends the child with SIGKILL — the crash the durable workload
// recovers from, and the quickest exit everywhere else — and waits
// until it is gone.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.readDone
	_ = c.cmd.Wait() // the exit status of a killed process is not news
}

func waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			_ = resp.Body.Close() // nothing was read from it
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("GET /healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// preload sends the population as binary batches over one connection.
func preload(ctx context.Context, base string, batches [][]byte) error {
	for i, b := range batches {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/update/batch", bytes.NewReader(b))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", mod.BinaryUpdatesContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("preload batch %d: %w", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // only read
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("preload batch %d: %s: %s", i, resp.Status, body)
		}
	}
	return nil
}

// getJSON decodes the JSON document at url into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchSnapshot loads the server's whole state through
// GET /snapshot?format=binary.
func fetchSnapshot(ctx context.Context, base string) (*mod.DB, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/snapshot?format=binary", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /snapshot: %s", resp.Status)
	}
	return mod.LoadBinary(resp.Body)
}

// procStat is what /proc says about the child.
type procStat struct {
	cpuSeconds float64 // user + system
	rssPeakMB  float64 // VmHWM
}

// clockTick is the kernel's USER_HZ. Linux has fixed it at 100 on every
// architecture Go supports, and the standard library has no sysconf.
const clockTick = 100

func readProc(pid int) (procStat, error) {
	var ps procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// The command name, field 2, may hold spaces; fields count from
	// the closing parenthesis.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, err
	}
	ps.cpuSeconds = (utime + stime) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, err
			}
			ps.rssPeakMB = kb / 1024
		}
	}
	return ps, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			// A checkpoint may delete a file between the listing and
			// the stat; what is gone has no size.
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
