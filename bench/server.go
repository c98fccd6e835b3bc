package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot returns the root of the checkout the harness belongs to: the
// first directory, walking up from the executable (run.sh builds it
// into bench/out/bin) and then from the working directory (go test),
// that holds a go.mod and cmd/acqserved.
func findRoot() (string, error) {
	starts := make([]string, 0, 2)
	if exe, err := os.Executable(); err == nil {
		starts = append(starts, filepath.Dir(exe))
	}
	if dir, err := os.Getwd(); err == nil {
		starts = append(starts, dir)
	}
	for _, dir := range starts {
		for {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				if _, err := os.Stat(filepath.Join(dir, "cmd", "acqserved")); err == nil {
					return dir, nil
				}
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return "", errors.New("bench: no module root with cmd/acqserved above the working directory or the executable")
}

// buildServer compiles cmd/acqserved from the checkout's own source.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "acqserved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/acqserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building acqserved: %v\n%s", err, out)
	}
	return bin, nil
}

// freePorts picks n loopback ports by listening on :0 and closing. All
// listeners are held until every port is chosen, so the n are distinct.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for len(ports) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: picking a free port: %w", err)
		}
		held = append(held, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// nodes is the set of live acqserved children of one workload run.
type nodes struct {
	cmds []*exec.Cmd
	urls []string
	logs []*os.File
}

// startNodes spawns n acqserved processes on loopback: one standalone
// node with GOMAXPROCS=2, or a cluster with full peer lists and one
// processor each. The caller must stop() them, also on failure.
func startNodes(bin, csvPath, outDir string, n int) (*nodes, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	ns := &nodes{}
	for _, p := range ports {
		ns.urls = append(ns.urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	procs := "2"
	if n > 1 {
		procs = "1"
	}
	for i, p := range ports {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", p), "-schema", schemaSpec, "-data", csvPath}
		if n > 1 {
			args = append(args, "-peers", strings.Join(ns.urls, ","), "-gossip-interval", "200ms")
		}
		log, err := os.Create(filepath.Join(outDir, fmt.Sprintf("acqserved-%d.log", i)))
		if err != nil {
			return nil, errors.Join(err, ns.stop())
		}
		ns.logs = append(ns.logs, log)
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		cmd.Stdout, cmd.Stderr = log, log
		if err := cmd.Start(); err != nil {
			return nil, errors.Join(fmt.Errorf("bench: starting acqserved: %w", err), ns.stop())
		}
		ns.cmds = append(ns.cmds, cmd)
	}
	return ns, nil
}

// awaitReady polls every node's /readyz until all answer 200.
func (ns *nodes) awaitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for _, u := range ns.urls {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: %s not ready after %s (see its log under the output directory)", u, limit)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// stop sends every child TERM, waits for it, and kills it if it has not
// exited within five seconds. It reports children that did not exit
// cleanly.
func (ns *nodes) stop() error {
	var errs []error
	for _, cmd := range ns.cmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			errs = append(errs, err)
		}
	}
	for _, cmd := range ns.cmds {
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				errs = append(errs, fmt.Errorf("bench: acqserved pid %d: %w", cmd.Process.Pid, err))
			}
		case <-time.After(5 * time.Second):
			errs = append(errs, fmt.Errorf("bench: acqserved pid %d ignored TERM, killed", cmd.Process.Pid))
			if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
				errs = append(errs, err)
			}
			<-done
		}
	}
	ns.cmds = nil
	for _, f := range ns.logs {
		f.Close()
	}
	ns.logs = nil
	return errors.Join(errs...)
}

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go runs on.
const clockTicks = 100

// cpuSeconds sums user and system CPU time over all children.
func (ns *nodes) cpuSeconds() (float64, error) {
	total := 0.0
	for _, cmd := range ns.cmds {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) is parenthesized and may hold spaces;
		// fields are counted from the closing parenthesis.
		rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("bench: short /proc stat line for pid %d", cmd.Process.Pid)
		}
		utime, err1 := strconv.ParseFloat(f[11], 64)
		stime, err2 := strconv.ParseFloat(f[12], 64)
		if err := errors.Join(err1, err2); err != nil {
			return 0, err
		}
		total += (utime + stime) / clockTicks
	}
	return total, nil
}

// peakRSSMB sums the children's peak resident set sizes (VmHWM).
func (ns *nodes) peakRSSMB() float64 {
	total := 0.0
	for _, cmd := range ns.cmds {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid))
		if err != nil {
			continue // the figure is informational; a vanished child is reported by stop
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					total += kb / 1024
				}
			}
		}
	}
	return total
}
