package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// benchEnv is where the harness finds the program under test and keeps
// what a run leaves behind. Everything it writes lives under the
// checkout: binaries and scratch in <root>/.bench_build, traces in
// <root>/bench/out.
type benchEnv struct {
	root    string // the checkout (holds BENCHMARK.json and the repro go.mod)
	hfrun   string
	hfserve string
	tmp     string // per-process scratch, removed by cleanup

	mu      sync.Mutex
	servers []*server // every hfserve child started, for killServers
}

// findRoot walks up from the working directory to the checkout root, so
// the command works from the root (run.sh) and from bench/ (go run -C).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(mod)), "module repro\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "hfrun")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no repro checkout (go.mod with cmd/hfrun) at or above the working directory")
		}
		dir = parent
	}
}

// newEnv locates the checkout, builds hfrun and hfserve from it, and
// creates the per-process scratch directory.
func newEnv() (*benchEnv, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	// Building is not set-up and is not timed. go build is a no-op when
	// the binaries are current, so every run measures the sources it sees.
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/hfrun", "./cmd/hfserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building hfrun/hfserve: %v\n%s", err, out)
	}
	tmpParent := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpParent, "run-")
	if err != nil {
		return nil, err
	}
	return &benchEnv{
		root:    root,
		hfrun:   filepath.Join(bin, "hfrun"),
		hfserve: filepath.Join(bin, "hfserve"),
		tmp:     tmp,
	}, nil
}

// cleanup removes the scratch directory (WAL segments, port files).
func (e *benchEnv) cleanup() {
	if e != nil && e.tmp != "" {
		os.RemoveAll(e.tmp)
	}
}

// killServers kills and reaps every hfserve child still running; the
// signal path's counterpart of server.stop.
func (e *benchEnv) killServers() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.servers {
		select {
		case <-s.done:
		default:
			_ = s.cmd.Process.Kill() // already-exited is fine; done closes either way
			<-s.done
		}
	}
}

// hygiene is the run environment recorded in every results file.
type hygiene struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readHygiene(root string) hygiene {
	h := hygiene{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown", // a driver checkout is not a git repository
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	// A driver checkout is not a repository: keep git from searching above it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// cpuTicks reads the machine-wide CPU accounting from /proc/stat: all
// ticks, and the ticks the hypervisor gave to someone else (steal). A
// sandbox that is being throttled shows up here and nowhere else; zero
// where /proc/stat is absent.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
