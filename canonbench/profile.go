package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuModules are the repository's layers the CPU ledger splits by; any
// other repository package folds into "other".
var cpuModules = []string{
	"sim", "mem", "rnic", "fabric", "verbs", "core", "criu", "pagechan", "runc",
	"migmgr", "orchestrator", "tenant", "perftest", "metrics",
}

// cpuShares aggregates the traced rounds' CPU profiles into per-module
// self-time shares (percent of all samples). It reads the profiles with
// `go tool pprof -top` from the installed toolchain.
func cpuShares(ctx context.Context, exe string, profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("cpu shares: no traced round")
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", exe}, profiles...)
	cmd := exec.CommandContext(ctx, "go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	self, err := parseTop(out.String())
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{"cpu.goruntime": 0, "cpu.stdlib": 0, "cpu.bench": 0, "cpu.other": 0}
	for _, m := range cpuModules {
		shares["cpu."+m] = 0
	}
	var total time.Duration
	for fn, d := range self {
		shares["cpu."+moduleOf(fn)] += float64(d)
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu shares: profiles hold no samples")
	}
	for k, v := range shares {
		shares[k] = 100 * v / float64(total)
	}
	return shares, nil
}

// parseTop reads the flat (self) time per function off `pprof -top`
// output: after the header row, each line is
// "flat flat% sum% cum cum% function".
func parseTop(text string) (map[string]time.Duration, error) {
	self := map[string]time.Duration{}
	sc := bufio.NewScanner(strings.NewReader(text))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top: flat column %q: %w", f[0], err)
		}
		self[f[5]] += d
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no header row in output")
	}
	return self, nil
}

// moduleOf maps a profiled function to its ledger module.
func moduleOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "migrrdma/canonbench"):
		return "bench"
	case strings.HasPrefix(pkg, "migrrdma/internal/"):
		layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "migrrdma/internal/"), "/")
		for _, m := range cpuModules {
			if m == layer {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "migrrdma"):
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		!strings.Contains(fn, "."):
		// Unqualified names are the runtime's assembly bodies, such as
		// aeshashbody and cmpbody.
		return "goruntime"
	}
	return "stdlib"
}

// pkgOf returns the import path of a symbol such as
// "migrrdma/internal/sim.(*Scheduler).dispatch": everything before the
// first dot after the last slash of the name's leading path.
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
