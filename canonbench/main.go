// Command canonbench is the repository's canonical migration benchmark:
// one driver, three long workloads, and a per-module ledger.
//
// It builds its workloads from the layers' public packages (cluster,
// core, perftest, tenant, runc, orchestrator), runs each as a closed
// loop on the single-threaded cluster.New engine, checks every output,
// and reports two kinds of numbers:
//
//   - virtual: deterministic simulated-time outcomes (blackout,
//     migration time, wire bytes, ops per simulated second, drain
//     window). Identical across runs at one seed.
//   - host: what simulating that outcome costs (wall, CPU, set-up,
//     allocation, peak RSS).
//
// A run repeats whole rounds (build → ready → measured window →
// teardown) of one workload at one seed for --seconds of wall time,
// each round in a fresh child process so parked simulator goroutines
// and heap growth never leak from one round into the next. Host
// numbers are medians over rounds; virtual numbers must agree across
// rounds, and a disagreement fails the run.
//
// With --trace 1 the run alternates untraced and traced rounds. Traced
// rounds CPU-profile the measured window and write the driver's span
// tree; the parent folds the profiles through `go tool pprof` into
// per-module CPU shares and reports the per-layer ledger plus the
// tracing overhead (traced minus untraced wall_s).
//
// Usage (from the repository root):
//
//	bash canonbench/run.sh --workload linerate-pingpong --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("canonbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "wall seconds to keep starting rounds")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger from traced rounds instead of the end-to-end metrics")
	out := fs.String("out", ".bench_build/canonbench", "directory for profiles and span exports")
	round := fs.Int("round", -1, "internal: run one round in this process and print its result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "canonbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "canonbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "canonbench: --seconds must be at least 1\n")
		return 2
	}
	if *round >= 0 {
		return childMain(w, *seed, *round, *trace == 1, *out, stdout, stderr)
	}
	return parentMain(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, stdout, stderr)
}
