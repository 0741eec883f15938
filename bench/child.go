package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childUsage is what the kernel accounted to one finished child process.
type childUsage struct {
	wall   time.Duration // spawn -> exit
	cpu    time.Duration // user + system
	rssMiB float64       // ru_maxrss
}

func usageOf(ps *os.ProcessState, wall time.Duration) childUsage {
	u := childUsage{wall: wall, cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// errNotStarted marks an hfrun that never ran: there is nothing to
// measure, and repeating it would not advance the measuring window.
var errNotStarted = errors.New("hfrun did not start")

// runHFRun runs one hfrun child from the checkout root and returns its
// combined output and resource usage. A non-zero exit is an error, with
// the output attached.
func (e *benchEnv) runHFRun(args ...string) (string, childUsage, error) {
	cmd := exec.Command(e.hfrun, args...)
	cmd.Dir = e.root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if cmd.ProcessState == nil {
		return out.String(), childUsage{}, fmt.Errorf("%w: %v", errNotStarted, err)
	}
	u := usageOf(cmd.ProcessState, wall)
	if err != nil {
		return out.String(), u, fmt.Errorf("hfrun %s: %w\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String(), u, nil
}

// hfrunResult is what the harness reads from hfrun's summary.
type hfrunResult struct {
	Converged  bool
	Iterations int
	Energy     float64
}

var (
	statusRe = regexp.MustCompile(`(?m)^status:\s+(CONVERGED|NOT CONVERGED) in (\d+) iterations`)
	energyRe = regexp.MustCompile(`(?m)^total energy:\s+(-?\d+\.\d+) hartree`)
)

// parseHFRun extracts the convergence status, iteration count and total
// energy from hfrun's output.
func parseHFRun(out string) (hfrunResult, error) {
	var r hfrunResult
	m := statusRe.FindStringSubmatch(out)
	if m == nil {
		return r, fmt.Errorf("no status line in hfrun output")
	}
	r.Converged = m[1] == "CONVERGED"
	r.Iterations, _ = strconv.Atoi(m[2]) // \d+ matched
	e := energyRe.FindStringSubmatch(out)
	if e == nil {
		return r, fmt.Errorf("no total energy line in hfrun output")
	}
	var err error
	if r.Energy, err = strconv.ParseFloat(e[1], 64); err != nil {
		return r, fmt.Errorf("bad energy %q: %w", e[1], err)
	}
	return r, nil
}

// server is a running hfserve child.
type server struct {
	cmd    *exec.Cmd
	out    *bytes.Buffer
	base   string // http://host:port
	walDir string
	start  time.Time
	ready  time.Duration // process start -> /readyz 200
	done   chan struct{} // closed when the child has been reaped
	usage  childUsage    // valid after done
	exit   error
}

// startServer starts hfserve on an ephemeral loopback port with a fresh
// fsync'd WAL and waits for /readyz. The returned server must be stopped
// (stop reaps the child on every path).
func (e *benchEnv) startServer(tag string) (*server, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-"+tag+"-")
	if err != nil {
		return nil, err
	}
	portfile := filepath.Join(dir, "port")
	s := &server{out: &bytes.Buffer{}, walDir: filepath.Join(dir, "wal"), done: make(chan struct{})}
	s.cmd = exec.Command(e.hfserve, "-addr", "127.0.0.1:0", "-portfile", portfile,
		"-workers", "2", "-wal", s.walDir)
	s.cmd.Dir = e.root
	s.cmd.Stdout, s.cmd.Stderr = s.out, s.out
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hfserve: %w", err)
	}
	e.mu.Lock()
	e.servers = append(e.servers, s)
	e.mu.Unlock()
	go func() {
		s.exit = s.cmd.Wait()
		s.usage = usageOf(s.cmd.ProcessState, time.Since(s.start))
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for s.base == "" || !s.isReady() {
		select {
		case <-s.done:
			return nil, fmt.Errorf("hfserve exited before it was ready: %v\n%s", s.exit, s.out.String())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("hfserve not ready after 20s\n%s", s.out.String())
		}
		if s.base == "" {
			if b, err := os.ReadFile(portfile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				s.base = "http://" + strings.TrimSpace(string(b))
				continue
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.ready = time.Since(s.start)
	return s, nil
}

func (s *server) isReady() bool {
	resp, err := http.Get(s.base + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM (graceful drain), waits for the child, and kills it
// if the drain does not finish. It returns the SIGTERM -> exit time and
// whether the server reported a clean drain. Safe to call twice.
func (s *server) stop() (drain time.Duration, clean bool) {
	select {
	case <-s.done:
	default:
		t0 := time.Now()
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped below
		select {
		case <-s.done:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		drain = time.Since(t0)
	}
	clean = s.exit == nil && strings.Contains(s.out.String(), "drained cleanly, no jobs lost")
	return drain, clean
}

// peakRSSMiB reads the running child's peak resident set so far (VmHWM,
// the quantity ru_maxrss reports at exit); 0 when /proc does not say.
func (s *server) peakRSSMiB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}
