// Command bench is the repository's benchmark: four workloads, measured
// end to end through the surfaces users run (the hfrun CLI and the
// hfserve HTTP API, built from the checkout and run as child processes)
// and, in a separate traced run, layer by layer from this directory's
// own files. See README.md.
//
//	bench -workload <name> -seed N -seconds S -trace 0|1 [-out run.json]
//	bench -runs K [-workload <name>|all] [-seed N] [-seconds S] [-trace 0|1] [-out set.json]
//	bench -compare A.json B.json
//
// A single run prints every metric by name with its unit, then one JSON
// object on the last line of standard output (the driver contract in
// BENCHMARK.json), and exits non-zero when a correctness check failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.String("trace", "0", "1 = the traced per-layer run, 0 = the end-to-end run (tracing off)")
		out      = flag.String("out", "", "also write the results as JSON to this file")
		runs     = flag.Int("runs", 0, "run each workload this many times (seeds seed, seed+1, ...) in fresh processes and summarise")
		compare  = flag.Bool("compare", false, "compare two -runs result files: bench -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf(2, "bench: -compare takes two result files")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	traced, err := parseTrace(*trace)
	if err != nil {
		fatalf(2, "bench: %v", err)
	}
	if *workload != "all" && !knownWorkload(*workload) {
		fatalf(2, "bench: unknown workload %q (want one of %v, or all)", *workload, workloadNames)
	}
	if *seconds <= 0 {
		fatalf(2, "bench: -seconds must be positive")
	}
	if *runs > 0 || *workload == "all" {
		os.Exit(runSet(setOptions{
			workload: *workload, seed: *seed, seconds: *seconds, traced: traced,
			runs: max(*runs, 1), out: *out,
		}))
	}
	os.Exit(runOne(*workload, *seed, *seconds, traced, *out))
}

func parseTrace(s string) (bool, error) {
	switch s {
	case "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	}
	return false, fmt.Errorf("-trace wants 0 or 1, got %q", s)
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// runOne performs one run of one workload in this process and returns
// the exit code: 0 only when every correctness check passed.
func runOne(workload string, seed int64, seconds float64, traced bool, out string) int {
	env, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer env.cleanup()
	// A signal must not leave an hfserve child or scratch files behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		env.killServers()
		env.cleanup()
		os.Exit(130)
	}()

	ref, err := loadReference(env.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	total0, steal0 := cpuTicks()
	var res *runResult
	switch {
	case traced:
		res, err = runTraced(env, workload, ref, seed)
	case workload == wlDensity:
		res, err = runDensity(seed, seconds)
	case workload == wlServe:
		res, err = runServe(env, ref, seed, seconds)
	default:
		res, err = runSCF(env, scfWorkloads[workload], ref, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", workload+":", err)
		return 1
	}
	res.Seed, res.Seconds, res.Trace, res.Env = seed, seconds, traced, readHygiene(env.root)
	if total1, steal1 := cpuTicks(); total1 > total0 {
		res.StealShare = (steal1 - steal0) / (total1 - total0)
	}
	return report(res, out)
}

// report prints a run's metrics by name, writes the results file when
// asked, prints the driver's JSON object as the last line, and returns
// the exit code: non-zero on a failed check.
func report(res *runResult, out string) int {
	res.printTable()
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := res.contractLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(line)
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed their check\n", res.Workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// traceDir is where the traced run writes its spans.
func traceDir(root string) string { return filepath.Join(root, "bench", "out") }
