package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// heldOutSeed is never used while tuning the benchmark; the
// determinism test runs it through the same checks.
const heldOutSeed = 7_919_003

// TestDeterminism runs every workload twice at one seed: the virtual
// metrics and the metrics-snapshot hash must be identical, the run
// must pass every output check, and a held-out seed must run clean too.
func TestDeterminism(t *testing.T) {
	names := []string{"linerate-pingpong", "tenant-pingpong", "rack-drain"}
	if testing.Short() {
		names = []string{"rack-drain"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			a := mustRound(t, w, 1)
			b := mustRound(t, w, 1)
			if a.Hash != b.Hash {
				t.Errorf("snapshot hash differs at one seed: %s vs %s", a.Hash, b.Hash)
			}
			if !reflect.DeepEqual(a.Virtual, b.Virtual) {
				t.Errorf("virtual end-to-end metrics differ at one seed:\n%v\n%v", a.Virtual, b.Virtual)
			}
			if !reflect.DeepEqual(a.LayerVirtual, b.LayerVirtual) {
				t.Errorf("virtual per-layer metrics differ at one seed:\n%v\n%v", a.LayerVirtual, b.LayerVirtual)
			}
			c := mustRound(t, w, heldOutSeed)
			if c.Hash == a.Hash {
				t.Errorf("held-out seed reproduced seed 1's hash: the seed does not reach the inputs")
			}
		})
	}
}

// mustRound runs one untraced round and fails the test on any failed
// operation or missing ledger metric.
func mustRound(t *testing.T, w workload, seed int64) roundResult {
	t.Helper()
	res, err := runRound(w, seed, false, "")
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", w.name, seed, res.Failed, res.Attempted, res.Violations)
	}
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range led.EndToEnd {
		v, inV := res.Virtual[e.Name]
		h, inH := res.Host[e.Name]
		if inV == inH || (inV && e.Kind != "virtual") || v+h <= 0 {
			t.Errorf("%s: end-to-end metric %s: virtual %v (%v), host %v (%v); want exactly one, of kind %s, > 0",
				w.name, e.Name, v, inV, h, inH, e.Kind)
		}
	}
	for _, e := range led.PerLayer {
		_, inV := res.LayerVirtual[e.Name]
		_, inH := res.LayerHost[e.Name]
		// CPU shares and the tracing overhead are the parent's, from
		// traced rounds.
		parent := strings.HasPrefix(e.Name, "cpu.") || e.Name == "trace.overhead_s"
		if n := count(inV, inH, parent); n != 1 || (inV && e.Kind != "virtual") {
			t.Errorf("%s: per-layer metric %s produced %d times (virtual %v, host %v, parent %v)", w.name, e.Name, n, inV, inH, parent)
		}
	}
	return res
}

func count(bs ...bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestLinerateShowsVMAGrowth pins the re-migration defect the ping-pong
// workloads exist to expose: the sender's VMA count grows every hop,
// and the blackout tail grows with it.
func TestLinerateShowsVMAGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("full linerate round")
	}
	res := mustRound(t, workloads["linerate-pingpong"], 2)
	if got := res.LayerVirtual["mem.vmas_per_hop"]; got <= 0 {
		t.Errorf("mem.vmas_per_hop = %v, want > 0", got)
	}
	if p50, max := res.Virtual["blackout_p50_ms"], res.Virtual["blackout_max_ms"]; max <= p50 {
		t.Errorf("blackout_max_ms %v <= blackout_p50_ms %v", max, p50)
	}
}

// TestLedgerMatchesBenchmark keeps BENCHMARK.json and the embedded
// ledger naming the same metrics, units and directions, and the same
// workloads the driver runs.
func TestLedgerMatchesBenchmark(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []ledgerEntry `json:"end_to_end"`
		PerLayer  []ledgerEntry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	led, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []ledgerEntry) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, ledger %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, ledger %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			if w.Kind != "virtual" && w.Kind != "host" {
				t.Errorf("%s: kind %q, want virtual or host", w.Name, w.Kind)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, led.EndToEnd)
	same("per_layer", bench.PerLayer, led.PerLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, driver runs %v", names, have)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"migrrdma/internal/sim.(*Scheduler).dispatch":        "sim",
		"migrrdma/internal/sim.(*Chan[go.shape.int]).Send":   "sim",
		"migrrdma/internal/mem.(*AddressSpace).access":       "mem",
		"migrrdma/internal/task.(*Process).Gate":             "other",
		"migrrdma/internal/tenant.(*Gateway).refill":         "tenant",
		"main.runLinerate.func2":                             "bench",
		"runtime.memmove":                                    "goruntime",
		"aeshashbody":                                        "goruntime",
		"internal/runtime/maps.h2":                           "goruntime",
		"container/heap.down":                                "stdlib",
		"sync/atomic.(*Bool).Load":                           "stdlib",
		"encoding/gob.(*Decoder).Decode":                     "stdlib",
		"migrrdma/internal/orchestrator.(*Orchestrator).run": "orchestrator",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := `File: canonbench.bin
Type: cpu
Showing nodes accounting for 1.5s, 100% of 1.5s total
      flat  flat%   sum%        cum   cum%
     1.20s 80.00% 80.00%      1.20s 80.00%  runtime.memmove
    0.30s 20.00% 100%      0.30s 20.00%  migrrdma/internal/rnic.get24 (inline)
`
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if got["runtime.memmove"].Seconds() != 1.2 || got["migrrdma/internal/rnic.get24"].Seconds() != 0.3 {
		t.Errorf("parseTop = %v", got)
	}
	if _, err := parseTop("no header here\n"); err == nil {
		t.Error("parseTop accepted output without a header row")
	}
}

// TestTracedRoundExports runs one traced round and checks what the
// ledger's per-module split and span tree are built from: a CPU profile
// with samples, and a span export in which setup, warm-up and the
// drain hang off the round on both clocks, and every migration's
// report phases sit inside it in virtual time.
func TestTracedRoundExports(t *testing.T) {
	stem := filepath.Join(t.TempDir(), "traced")
	if _, err := runRound(workloads["rack-drain"], 1, true, stem); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(stem + ".pprof"); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile: %v", err)
	}
	data, err := os.ReadFile(stem + ".spans.json")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	type ev struct {
		name     string
		parent   int
		ts, end  float64
		wall     bool
		virtSeen bool
	}
	spans := map[int]*ev{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		id := int(e.Args["id"].(float64))
		s := spans[id]
		if s == nil {
			s = &ev{name: e.Name, parent: int(e.Args["parent"].(float64))}
			spans[id] = s
		}
		switch e.PID {
		case pidWall:
			s.wall = true
		case pidVirtual:
			s.virtSeen = true
			s.ts, s.end = e.TS, e.TS+e.Dur
		}
	}
	byName := map[string]int{}
	phases := 0
	for id, s := range spans {
		if !s.virtSeen {
			t.Errorf("span %q has no virtual interval", s.name)
		}
		byName[s.name] = id
		if p := spans[s.parent]; p != nil && strings.HasPrefix(p.name, "migration ") {
			phases++
			// The export is in float microseconds; allow a nanosecond.
			if s.ts < p.ts-1e-3 || s.end > p.end+1e-3 {
				t.Errorf("phase %q [%v, %v] outside its migration %q [%v, %v]", s.name, s.ts, s.end, p.name, p.ts, p.end)
			}
		}
	}
	for _, name := range []string{"setup", "warm-up", "drain", "teardown"} {
		id, ok := byName[name]
		if !ok {
			t.Errorf("no %q span", name)
			continue
		}
		if s := spans[id]; !s.wall || spans[s.parent] == nil || spans[s.parent].name != "round" {
			t.Errorf("span %q: wall %v, parent %d; want a wall interval under the round", name, s.wall, s.parent)
		}
	}
	if phases == 0 {
		t.Error("no report phase spans under the migrations")
	}
}
