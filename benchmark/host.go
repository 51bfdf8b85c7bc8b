//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procHost is the process that hosts the system under test: this
// process for the in-process workloads, the shardd child for the served
// ones. CPU and memory are charged to it, not to the load generator,
// and read from /proc. CPU is the sum of
// its threads' on-CPU time from schedstat, which has nanosecond
// resolution; /proc/<pid>/stat counts 10 ms ticks, too coarse for a
// child that uses a third of a core for a two-second segment.
type procHost struct{ pid int }

func (p procHost) cpu() time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", p.pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	return time.Duration(ns)
}

func (p procHost) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfHost is this process, with what earlier workloads left behind
// returned to the system and the peak RSS reset, so that a workload is
// charged the same whether it runs first in its process or fifth.
func selfHost() procHost {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS.
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // without it the peak is the process's, still an upper bound
	return procHost{pid: os.Getpid()}
}

// buildShardd compiles cmd/shardd from the checkout's source into the
// build directory. Compiling is not part of any measured time.
func buildShardd(root, buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "shardd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/shardd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/shardd: %w\n%s", err, out)
	}
	return bin, nil
}

// shardd is a spawned cmd/shardd child.
type shardd struct {
	procHost
	cmd  *exec.Cmd
	addr string

	mu  sync.Mutex
	out bytes.Buffer // everything the child printed
	eof chan struct{}
}

// startShardd spawns the daemon on an ephemeral loopback port with the
// issue's configuration (16 stripes, every other flag at its default)
// and returns once it has announced its address.
func startShardd(bin string, gomaxprocs int) (*shardd, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-stripes", "16")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &shardd{procHost: procHost{cmd.Process.Pid}, cmd: cmd, eof: make(chan struct{})}
	ready := make(chan string, 1) // the reader sends at most one address
	go func() {
		defer close(d.eof)
		br := bufio.NewReader(stdout)
		for {
			line, err := br.ReadString('\n')
			d.mu.Lock()
			d.out.WriteString(line)
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "shardd: serving on "); ok {
				addr, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				ready <- strings.TrimSuffix(addr, ",")
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case d.addr = <-ready:
		return d, nil
	case <-d.eof:
		err = fmt.Errorf("shardd exited before serving: %s", d.output())
	case <-time.After(10 * time.Second):
		err = errors.New("shardd did not announce an address within 10s")
	}
	d.kill()
	return nil, err
}

func (d *shardd) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

// kill ends the child unconditionally and waits for it.
func (d *shardd) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.eof
	d.cmd.Wait() //nolint:errcheck // killed on purpose
}

// stop asks the child to drain with SIGTERM and waits for it. A clean
// drain — exit status 0 after printing "drained" — is one of the
// benchmark's correctness checks.
func (d *shardd) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal shardd: %w", err)
	}
	select {
	case <-d.eof:
	case <-time.After(10 * time.Second):
		d.kill()
		return errors.New("shardd did not exit within 10s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("shardd drain: %w: %s", err, d.output())
	}
	if !strings.Contains(d.output(), "shardd: drained") {
		return fmt.Errorf("shardd exited 0 without draining: %s", d.output())
	}
	return nil
}
