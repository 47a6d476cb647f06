package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"time"
)

// ledgerJSON names every metric the benchmark reports, with its unit,
// direction, kind (virtual or host) and, for per-layer metrics, the
// layer and the end-to-end metric and workload it should move.
//
//go:embed metrics.json
var ledgerJSON []byte

// ledgerEntry is the part of a ledger entry the driver uses; the what,
// layer and moves fields are documentation for readers.
type ledgerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Kind   string `json:"kind"`
}

type ledger struct {
	EndToEnd []ledgerEntry `json:"end_to_end"`
	PerLayer []ledgerEntry `json:"per_layer"`
}

func loadLedger() (ledger, error) {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		return l, fmt.Errorf("metrics.json: %w", err)
	}
	return l, nil
}

// Round budget: a run keeps starting rounds until --seconds elapsed,
// but always runs enough for a median (and, traced, at least one round
// of each kind).
const (
	minRounds       = 3
	minTracedRounds = 2
	maxRounds       = 64
	// runDeadline bounds a whole run, children included.
	runDeadline = 170 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func parentMain(w workload, seed int64, budget time.Duration, traced bool, out string, stdout, stderr io.Writer) int {
	led, err := loadLedger()
	if err != nil {
		fmt.Fprintf(stderr, "canonbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(stderr, "canonbench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "canonbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	start := time.Now()
	want := minRounds
	if traced {
		want = minTracedRounds
	}
	var rounds []roundResult
	var profiles []string
	var took []float64
	for k := 0; k < maxRounds; k++ {
		// Start another round only while it is expected to end within
		// the budget, so a run lasts about --seconds.
		if k >= want && time.Since(start)+time.Duration(median(took)*float64(time.Second)) > budget {
			break
		}
		tr := traced && k%2 == 1
		t := time.Now()
		res, err := runChild(ctx, exe, w.name, seed, k, tr, out, stderr)
		took = append(took, time.Since(t).Seconds())
		if err != nil {
			fmt.Fprintf(stderr, "canonbench: %s round %d: %v\n", w.name, k, err)
			return 1
		}
		if tr {
			profiles = append(profiles, roundStem(out, w.name, seed, k)+".pprof")
		}
		fmt.Fprintf(stderr, "canonbench: round %d traced=%v: setup %.3fs wall %.3fs cpu %.3fs\n",
			k, tr, res.Host["setup_s"], res.Host["wall_s"], res.Host["cpu_s"])
		rounds = append(rounds, res)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, rr := range rounds {
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
		for _, v := range rr.Violations {
			fmt.Fprintf(stderr, "canonbench: round %d: %s\n", i, v)
		}
		if i > 0 && !sameVirtual(rounds[0], rr) {
			res.Failed++
			fmt.Fprintf(stderr, "canonbench: round %d: virtual outcome differs from round 0 at the same seed (hash %s vs %s)\n",
				i, rr.Hash, rounds[0].Hash)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	values := map[string]float64{}
	entries := led.EndToEnd
	if !traced {
		for k, v := range rounds[0].Virtual {
			values[k] = v
		}
		for k, v := range medianOf(rounds, false, func(rr roundResult) map[string]float64 { return rr.Host }) {
			values[k] = v
		}
	} else {
		entries = led.PerLayer
		for k, v := range rounds[0].LayerVirtual {
			values[k] = v
		}
		for k, v := range medianOf(rounds, false, func(rr roundResult) map[string]float64 { return rr.LayerHost }) {
			values[k] = v
		}
		shares, err := cpuShares(ctx, exe, profiles)
		if err != nil {
			fmt.Fprintf(stderr, "canonbench: %v\n", err)
			return 1
		}
		for k, v := range shares {
			values[k] = v
		}
		wallOf := func(rr roundResult) map[string]float64 { return rr.Host }
		values["trace.overhead_s"] = medianOf(rounds, true, wallOf)["wall_s"] - medianOf(rounds, false, wallOf)["wall_s"]
	}
	for _, e := range entries {
		v, ok := values[e.Name]
		if !ok {
			fmt.Fprintf(stderr, "canonbench: %s did not produce metric %s\n", w.name, e.Name)
			return 1
		}
		res.Metrics[e.Name] = metricValue{Value: v, Unit: e.Unit}
	}
	fmt.Fprintf(stderr, "canonbench: %s seed %d: %d rounds in %.1fs\n", w.name, seed, len(rounds), time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "canonbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild runs round k in a fresh process and decodes its result.
func runChild(ctx context.Context, exe, name string, seed int64, k int, traced bool, out string, stderr io.Writer) (roundResult, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--round", strconv.Itoa(k), "--trace", tr, "--out", out)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	var rr roundResult
	if err := cmd.Run(); err != nil {
		return rr, err
	}
	if err := json.Unmarshal(buf.Bytes(), &rr); err != nil {
		return rr, fmt.Errorf("decode round result: %w", err)
	}
	return rr, nil
}

// sameVirtual reports whether two rounds at one seed reached the same
// simulated outcome.
func sameVirtual(a, b roundResult) bool {
	return a.Hash == b.Hash && reflect.DeepEqual(a.Virtual, b.Virtual) && reflect.DeepEqual(a.LayerVirtual, b.LayerVirtual)
}

// medianOf takes the per-key median over the traced or untraced rounds.
func medianOf(rounds []roundResult, traced bool, pick func(roundResult) map[string]float64) map[string]float64 {
	samples := map[string][]float64{}
	for _, rr := range rounds {
		if rr.Traced != traced {
			continue
		}
		for k, v := range pick(rr) {
			samples[k] = append(samples[k], v)
		}
	}
	out := map[string]float64{}
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}
