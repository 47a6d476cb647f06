package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"migrrdma/internal/metrics"
	"migrrdma/internal/runc"
)

// workload is one benchmark scenario. run builds the testbed, calls
// r.markReady once the workload is ready, r.markStopped once the
// scheduler has stopped (both with the virtual time of that instant),
// and records every outcome and check on r.
type workload struct {
	name string
	run  func(r *round) error
}

var workloads = map[string]workload{
	"linerate-pingpong": {"linerate-pingpong", runLinerate},
	"tenant-pingpong":   {"tenant-pingpong", runTenant},
	"rack-drain":        {"rack-drain", runDrain},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// roundResult is what one round reports to the parent process.
type roundResult struct {
	Attempted  int64
	Failed     int64
	Violations []string
	// Hash is the final metrics snapshot hash; it and every virtual
	// value must be identical across rounds at one seed.
	Hash         string
	Virtual      map[string]float64
	Host         map[string]float64
	LayerVirtual map[string]float64
	LayerHost    map[string]float64
	Traced       bool
}

// profileHz is the traced rounds' CPU sampling rate: 2.5 times the
// runtime's default, and no more than a 250 Hz kernel tick delivers
// (per-thread CPU timers fire on ticks, so a higher rate would drop
// samples and misstate their weight).
const profileHz = 250

// hostSample is the process's host cost at one instant.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gc:    ms.NumGC,
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// round is one complete simulation of a workload in this process.
type round struct {
	seed  int64
	spans *spanRec // nil in untraced rounds
	// root, setup and teardown are the round's own spans; workloads
	// hang their warm-up and migrate spans off root.
	root, setup, teardown int
	stopVirt              time.Duration // virtual time the scheduler stopped at
	prof                  string        // CPU profile path; empty in untraced rounds
	profF                 *os.File

	start, ready, stopped hostSample
	isReady, isStopped    bool

	res roundResult
}

func newRound(seed int64) *round {
	return &round{seed: seed, res: roundResult{
		Virtual:      map[string]float64{},
		Host:         map[string]float64{},
		LayerVirtual: map[string]float64{},
		LayerHost:    map[string]float64{},
	}}
}

// markReady ends set-up and opens the measured window at virtual
// instant now.
func (r *round) markReady(now time.Duration) {
	r.spans.end(r.setup, now)
	r.ready = sampleHost()
	r.isReady = true
	if r.prof != "" {
		f, err := os.Create(r.prof)
		if err != nil {
			r.violate("start CPU profile: %v", err)
			return
		}
		// Raise the sampling rate first so that small layers get enough
		// samples for a share; StartCPUProfile then warns that the rate
		// is already set and keeps it.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			r.violate("start CPU profile: %v", err)
			return
		}
		r.profF = f
	}
}

// markStopped closes the measured window once the scheduler stopped.
// Writing the profile out happens after the window closes, so
// trace.overhead_s is the profiler's cost inside the window.
func (r *round) markStopped(now time.Duration) {
	r.stopped = sampleHost()
	r.isStopped = true
	if r.profF != nil {
		pprof.StopCPUProfile()
		if err := r.profF.Close(); err != nil {
			r.violate("write CPU profile: %v", err)
		}
		r.profF = nil
	}
	r.stopVirt = now
	r.teardown = r.spans.begin("teardown", r.root, now)
}

// violate records a failed check. A broken check counts as a failed
// operation: it never lets the run print a passing number.
func (r *round) violate(format string, args ...any) {
	r.res.Failed++
	r.note(format, args...)
}

func (r *round) note(format string, args ...any) {
	if len(r.res.Violations) < 16 {
		r.res.Violations = append(r.res.Violations, fmt.Sprintf(format, args...))
	}
}

// ops counts attempted operations and the failed ones among them.
func (r *round) ops(what string, attempted, failed int64) {
	r.res.Attempted += attempted
	if failed > 0 {
		r.res.Failed += failed
		r.note("%s: %d of %d failed", what, failed, attempted)
	}
}

// ms and friends convert durations and byte counts to report units.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func mb(n int64) float64         { return float64(n) / 1e6 }

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// ratio returns a/b, or 0 when b is 0 (the metric does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// p50 is the nearest-rank median of a sample.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+1)/2-1]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// median is the interpolated median used for host costs across rounds.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hop is one migration the workload drove, with what the driver saw
// around it.
type hop struct {
	rep *runc.Report
	// wall is the host time spent inside the migrate call; zero when
	// the migration ran concurrently with others (rack-drain).
	wall time.Duration
	// vmas is the migrated process's VMA count at freeze; -1 when not
	// observed.
	vmas int
}

// recordMigrations folds the run's migration reports into the
// end-to-end and per-layer metrics.
func (r *round) recordMigrations(hops []hop) {
	var blackout, total, wbs, pwbs, comm, dumpRDMA, dumpOthers, restoreRDMA, fullRestore, transfer, iters, rounds, walls []float64
	var wire, finalWire int64
	var pages, distinct int
	for _, h := range hops {
		rep := h.rep
		blackout = append(blackout, ms(rep.ServiceBlackout))
		total = append(total, ms(rep.Total))
		wbs = append(wbs, us(rep.WBS.Elapsed))
		pwbs = append(pwbs, us(rep.PartnerWBS.Elapsed))
		comm = append(comm, ms(rep.CommBlackout))
		// With pre-setup the report zeroes the RDMA dump/restore (they
		// leave the blackout); the timeline still carries them.
		dumpRDMA = append(dumpRDMA, ms(rep.Timeline.Get("dump-rdma")))
		dumpOthers = append(dumpOthers, ms(rep.DumpOthers))
		restoreRDMA = append(restoreRDMA, ms(rep.Timeline.Get("restore-rdma")))
		fullRestore = append(fullRestore, ms(rep.FullRestore))
		transfer = append(transfer, ms(rep.Transfer))
		iters = append(iters, float64(rep.PreCopyIterations))
		rounds = append(rounds, float64(len(rep.Rounds)))
		if h.wall > 0 {
			walls = append(walls, ms(h.wall))
		}
		wire += rep.WireBytes
		finalWire += rep.FinalWireBytes
		pages += rep.PagesTransferred
		distinct += rep.DistinctPages
	}
	v, lv := r.res.Virtual, r.res.LayerVirtual
	v["blackout_p50_ms"] = p50(blackout)
	v["blackout_max_ms"] = maxOf(blackout)
	v["migration_p50_ms"] = p50(total)
	v["wire_mb"] = mb(wire)
	lv["core.wbs_us.p50"] = p50(wbs)
	lv["core.partner_wbs_us.p50"] = p50(pwbs)
	lv["core.comm_blackout_ms.p50"] = p50(comm)
	lv["phase.dump_rdma_ms.p50"] = p50(dumpRDMA)
	lv["phase.dump_others_ms.p50"] = p50(dumpOthers)
	lv["phase.restore_rdma_ms.p50"] = p50(restoreRDMA)
	lv["phase.full_restore_ms.p50"] = p50(fullRestore)
	lv["phase.transfer_ms.p50"] = p50(transfer)
	lv["criu.pages_transferred"] = float64(pages)
	lv["criu.distinct_pages"] = float64(distinct)
	lv["pagechan.final_wire_mb"] = mb(finalWire)
	lv["pagechan.rounds.p50"] = p50(rounds)
	lv["runc.precopy_iters.p50"] = p50(iters)
	if len(walls) > 0 {
		r.res.LayerHost["runc.migrate_wall_ms.p50"] = p50(walls)
	}

	first, last := -1, -1
	for _, h := range hops {
		if h.vmas < 0 {
			continue
		}
		if first < 0 {
			first = h.vmas
		}
		last = h.vmas
	}
	if first >= 0 {
		lv["mem.vmas_first_freeze"] = float64(first)
		lv["mem.vmas_last_freeze"] = float64(last)
		lv["mem.vmas_per_hop"] = ratio(float64(last-first), float64(len(hops)-1))
	} else {
		lv["mem.vmas_first_freeze"], lv["mem.vmas_last_freeze"], lv["mem.vmas_per_hop"] = 0, 0, 0
	}
}

// recordRegistry folds the measured window's metrics-registry delta
// into the per-layer counters and keeps the final snapshot's hash.
func (r *round) recordRegistry(before, after *metrics.Snapshot) {
	d := after.Diff(before)
	lv := r.res.LayerVirtual
	for _, c := range []struct{ key, comp, name string }{
		{"rnic.tx_frames", "rnic", "tx_frames"},
		{"rnic.retx_packets", "rnic", "retx_packets"},
		{"rnic.go_back_n", "rnic", "go_back_n"},
		{"rnic.naks", "rnic", "naks"},
		{"rnic.rnr_naks", "rnic", "rnr_naks"},
		{"rnic.cqes", "rnic", "cqes"},
		{"fabric.tx_frames", "fabric", "tx_frames"},
		{"fabric.dropped_frames", "fabric", "dropped_frames"},
		{"fabric.uplink_dropped_frames", "fabric", "uplink_dropped_frames"},
		{"fabric.plug_buffered_packets", "fabric", "plug_buffered_packets"},
		{"fabric.plug_overflow_packets", "fabric", "plug_overflow_packets"},
		{"core.restore_replayed_wrs", "core", "restore_replayed_wrs"},
		{"core.stale_cqes_dropped", "core", "stale_cqes_dropped"},
		{"core.suspended_post_intercepts", "core", "suspended_post_intercepts"},
		{"core.wbs_sweep_rounds", "core", "wbs_sweep_rounds"},
		{"pagechan.pages_sent", "pagechan", "pages_sent"},
		{"pagechan.pages_elided", "pagechan", "pages_elided"},
		{"pagechan.chunks_sent", "pagechan", "chunks_sent"},
		{"migmgr.retried", "migmgr", "retried"},
		{"migmgr.failed", "migmgr", "failed"},
		{"orchestrator.migrations_retried", "orchestrator", "migrations_retried"},
		{"orchestrator.slo_violations", "orchestrator", "slo_violations"},
		{"tenant.gw_credit_stalls", "tenant", "gw_credit_stalls"},
		{"tenant.ops_acked", "tenant", "ops_acked"},
	} {
		lv[c.key] = float64(d.Sum(c.comp, c.name))
	}
	lv["fabric.uplink_mb"] = mb(d.Sum("fabric", "uplink_tx_bytes") + d.Sum("fabric", "uplink_rx_bytes"))
	lv["pagechan.elided_share"] = ratio(lv["pagechan.pages_elided"], lv["pagechan.pages_sent"]+lv["pagechan.pages_elided"])
	var waitSum, waitCount int64
	for _, val := range d.Values {
		if strings.HasPrefix(val.Key, "migmgr/queue_wait_us") {
			waitSum += val.Sum
			waitCount += val.Count
		}
	}
	lv["migmgr.queue_wait_us.mean"] = ratio(float64(waitSum), float64(waitCount))
	r.res.Hash = after.Hash()
}

// finish turns the host samples into the round's host metrics.
func (r *round) finish() error {
	if !r.isReady || !r.isStopped {
		return fmt.Errorf("workload never reached ready and stopped (ready=%v stopped=%v)", r.isReady, r.isStopped)
	}
	h := r.res.Host
	h["setup_s"] = r.ready.wall.Sub(r.start.wall).Seconds()
	h["wall_s"] = r.stopped.wall.Sub(r.ready.wall).Seconds()
	h["cpu_s"] = (r.stopped.cpu - r.ready.cpu).Seconds()
	h["alloc_mb"] = mb(int64(r.stopped.alloc - r.ready.alloc))
	h["rss_peak_mb"] = peakRSSMB()
	lh := r.res.LayerHost
	lh["goruntime.gc_cycles"] = float64(r.stopped.gc - r.ready.gc)
	lh["host.ns_per_frame"] = ratio(h["cpu_s"]*1e9, r.res.LayerVirtual["fabric.tx_frames"])
	return nil
}

// runRound runs one round of w in this process. A traced round also
// writes its CPU profile and span export under stem.
func runRound(w workload, seed int64, traced bool, stem string) (roundResult, error) {
	r := newRound(seed)
	r.res.Traced = traced
	if traced {
		r.spans = newSpanRec()
		r.prof = stem + ".pprof"
	}
	r.start = sampleHost()
	r.root = r.spans.begin("round", 0, 0)
	r.setup = r.spans.begin("setup", r.root, 0)
	err := w.run(r)
	r.spans.end(r.teardown, r.stopVirt)
	r.spans.end(r.root, r.stopVirt)
	if err != nil {
		return r.res, err
	}
	if err := r.finish(); err != nil {
		return r.res, err
	}
	if traced {
		if err := r.spans.export(stem + ".spans.json"); err != nil {
			return r.res, err
		}
	}
	return r.res, nil
}

// childMain runs round k and prints its result as JSON. The engine is
// single-threaded, so a round runs on one P: scheduler/proc handoffs
// stay on one thread instead of waking a second one, and a neighbour
// busying the other core of a small shared box disturbs the timing
// less.
func childMain(w workload, seed int64, k int, traced bool, out string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(1)
	res, err := runRound(w, seed, traced, roundStem(out, w.name, seed, k))
	if err == nil {
		err = json.NewEncoder(stdout).Encode(&res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "canonbench: %s round %d: %v\n", w.name, k, err)
		return 1
	}
	return 0
}

// roundStem names round k's profile and span files.
func roundStem(out, name string, seed int64, k int) string {
	return filepath.Join(out, fmt.Sprintf("%s-seed%d-round%d", name, seed, k))
}
