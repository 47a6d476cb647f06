package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/fabric"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/orchestrator"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// rack-drain: a declarative drain of the half-racks host set (hosts
// 0–3 of racks 0–7, 32 of 128 hosts) on the 2:1-oversubscribed
// two-tier fabric, each drained host carrying a lazily posting
// order-checked SEND client of 32 QPs whose server sits eight racks
// over (2048 QP endpoints in all), at MaxParallel 8. The only workload
// through the orchestrator, migmgr admission, placement and spine
// contention; every container migrates once.
const (
	drRacks        = 16
	drHostsPerRack = 8
	drParallel     = 8
	drSLO          = 200 * time.Millisecond
)

// drInputs are the seed-derived inputs: each client's post gap
// (480–519µs) and hot heap (4–11 pages rewritten every 500µs), whether
// every client also maps a one-page arena (the mapping walk is in every
// final dump, so this moves the whole blackout distribution, its
// maximum included), and the warm-up before the drain is submitted.
type drInputs struct {
	postGap map[string]time.Duration
	heap    map[string]*workingSet
	arena   bool
	warmup  time.Duration
}

func drainInputs(seed int64, clients []string) drInputs {
	rng := rand.New(rand.NewSource(seed))
	in := drInputs{postGap: make(map[string]time.Duration, len(clients)), heap: make(map[string]*workingSet, len(clients))}
	for _, c := range clients {
		in.postGap[c] = jitter(rng, 480*time.Microsecond, 40*time.Microsecond)
		n := 4 + rng.Intn(8)
		in.heap[c] = newWorkingSet(rng, n, n, 0, 500*time.Microsecond)
	}
	in.arena = rng.Intn(2) == 1
	in.warmup = jitter(rng, 2*time.Millisecond, time.Millisecond)
	return in
}

// arenaBase is where a drain client maps its arena.
const arenaBase = mem.Addr(0x5800_0000_0000)

func drainHost(rack, idx int) string { return fmt.Sprintf("r%dh%d", rack, idx) }

type drainPair struct {
	cli      *perftest.Client
	srv      *perftest.Server
	cliCont  *runc.Container
	stopHeap func()
	heapErr  error
}

func runDrain(r *round) error {
	var names, drained []string
	target := map[string]bool{}
	serverOf := map[string]string{}
	for rk := 0; rk < drRacks; rk++ {
		for h := 0; h < drHostsPerRack; h++ {
			names = append(names, drainHost(rk, h))
			if rk < 8 && h < 4 {
				drained = append(drained, drainHost(rk, h))
				target[drainHost(rk, h)] = true
				serverOf[drainHost(rk, h)] = drainHost(rk+8, h)
			}
		}
	}
	sort.Strings(drained)
	in := drainInputs(r.seed, drained)

	build := time.Now()
	cfg := cluster.FastCheckpointTestbed(r.seed)
	cfg.Fabric.Topology = fabric.Topology{
		Racks: drRacks, HostsPerRack: drHostsPerRack,
		UplinkRate: 200e9, // 2:1 oversubscription at 100 Gbps host links
	}
	cl := cluster.New(cfg, names...)
	daemons := make(map[string]*core.Daemon, len(names))
	for _, n := range names {
		daemons[n] = core.NewDaemon(cl.Host(n))
	}
	r.res.LayerHost["cluster.build_s"] = time.Since(build).Seconds()

	sched := cl.Sched
	pairs := make(map[string]*drainPair, len(drained))
	for _, cNode := range drained {
		sNode := serverOf[cNode]
		opts := perftest.Options{
			Verb: rnic.OpSend, MsgSize: 2048, QueueDepth: 4, NumQPs: 32,
			CheckOrder: true, PostGap: in.postGap[cNode],
		}
		p := &drainPair{
			srv: perftest.NewServer(sched, "srv-"+cNode, opts),
			cli: perftest.NewClient(sched, "cli-"+cNode, opts, perftest.Target{Node: sNode, Name: "srv-" + cNode}),
		}
		srvCont := runc.NewContainer(cl.Host(sNode), "srv-"+cNode+"-cont")
		srvCont.Start(func(tp *task.Process) { p.srv.Run(tp, daemons[sNode]) })
		p.cliCont = runc.NewContainer(cl.Host(cNode), "cli-"+cNode+"-cont")
		sched.Go("start-cli-"+cNode, func() {
			p.srv.WaitReady()
			p.cliCont.Start(func(tp *task.Process) { p.cli.Run(tp, daemons[cNode]) })
			proc := p.cliCont.Procs[0]
			if in.arena {
				_, p.heapErr = proc.AS.Map(arenaBase, mem.PageSize, "arena")
			}
			if p.heapErr == nil {
				p.stopHeap, p.heapErr = in.heap[cNode].start(sched, proc)
			}
		})
		pairs[cNode] = p
	}
	orch := orchestrator.New(orchestrator.Config{CL: cl, Daemons: daemons, Opts: runc.DefaultMigrateOptions()})
	for _, cNode := range drained {
		orch.Register(orchestrator.Workload{C: pairs[cNode].cliCont})
	}

	var (
		d                     *orchestrator.Drain
		before, drainBefore   *metrics.Snapshot
		drainAfter            *metrics.Snapshot
		readyAt, stopAt       time.Duration
		submitAt              time.Duration
		drainWall             time.Duration
		vmasBefore, vmasAfter []float64
		heapErr               error
		done                  bool
	)
	vmas := func() []float64 {
		var out []float64
		for _, c := range drained {
			out = append(out, float64(len(pairs[c].cliCont.Procs[0].AS.VMAs())))
		}
		return out
	}
	sched.Go("bench-driver", func() {
		for _, c := range drained {
			pairs[c].cli.WaitReady()
			if heapErr = pairs[c].heapErr; heapErr != nil {
				sched.Stop()
				return
			}
		}
		r.markReady(sched.Now())
		readyAt = sched.Now()
		before = cl.Metrics.Snapshot()
		warm := r.spans.begin("warm-up", r.root, sched.Now())
		sched.Sleep(in.warmup)
		r.spans.end(warm, sched.Now())
		vmasBefore = vmas()
		drainBefore = cl.Metrics.Snapshot()
		sp := r.spans.begin("drain", r.root, sched.Now())
		submitAt = sched.Now()
		t := time.Now()
		d = orch.Submit(&orchestrator.Drain{
			Selector:    func(h *cluster.Host) bool { return target[h.Name] },
			BlackoutSLO: drSLO, MaxParallel: drParallel, Retries: 1,
		})
		d.Wait()
		drainWall = time.Since(t)
		r.spans.end(sp, sched.Now())
		drainAfter = cl.Metrics.Snapshot()
		vmasAfter = vmas()
		for _, m := range d.Migrations {
			msp := r.spans.virtual("migration "+m.ID, sp, m.Started, m.Finished)
			if m.Report != nil {
				r.spans.phases(msp, m.Report)
			}
		}
		sched.Sleep(2 * time.Millisecond)
		for _, c := range drained {
			pairs[c].stopHeap()
			pairs[c].cli.Stop()
			pairs[c].cli.Wait()
		}
		// Let the servers consume the last receive completions.
		sched.Sleep(100 * time.Microsecond)
		for _, c := range drained {
			pairs[c].srv.Stop()
		}
		done = true
		stopAt = sched.Now()
		sched.Stop()
	})
	sched.RunFor(10 * time.Minute)
	r.markStopped(sched.Now())
	if heapErr != nil {
		return fmt.Errorf("drain: map client memory: %w", heapErr)
	}
	if !done {
		return fmt.Errorf("drain: driver did not finish by the horizon")
	}
	after := cl.Metrics.Snapshot()

	var hops []hop
	var lastDone time.Duration
	var failedMigs int64
	same := 0
	for _, m := range d.Migrations {
		switch {
		case m.State() != orchestrator.Done || m.Report == nil:
			failedMigs++
			r.note("drain: %s: state %s: %v", m.ID, m.State(), m.Err)
			continue
		case target[m.Dst]:
			r.violate("drain: %s placed on drained host %s", m.ID, m.Dst)
		}
		if cl.Host(m.Src).Rack == cl.Host(m.Dst).Rack {
			same++
		}
		if m.Finished > lastDone {
			lastDone = m.Finished
		}
		hops = append(hops, hop{rep: m.Report, vmas: -1})
	}
	r.ops("migrations", int64(len(drained)), failedMigs+absDiff(int64(len(d.Migrations)), int64(len(drained))))
	var posted, received int64
	for _, c := range drained {
		p := pairs[c]
		n := postedOps(p.cli)
		posted += n
		received += p.srv.Stats.Completed
		for _, e := range append(p.cli.Stats.Errors, p.srv.Stats.Errors...) {
			r.violate("perftest %s: %s", c, e)
		}
		if p.cli.Stats.Completed != n {
			r.violate("perftest %s: %d sends completed, %d posted", c, p.cli.Stats.Completed, n)
		}
	}
	r.ops("perftest sends", posted, absDiff(posted, received))
	if len(hops) == 0 {
		return nil
	}
	r.recordMigrations(hops)
	r.recordRegistry(before, after)
	r.res.Virtual["app_ops_per_s"] = ratio(float64(received), (stopAt - readyAt).Seconds())
	r.res.Virtual["drain_window_ms"] = ms(lastDone - submitAt)
	lv := r.res.LayerVirtual
	lv["mem.vmas_first_freeze"] = p50(vmasBefore)
	lv["mem.vmas_last_freeze"] = p50(vmasAfter)
	lv["mem.vmas_per_hop"] = p50(vmasAfter) - p50(vmasBefore)
	lv["orchestrator.same_rack_share"] = ratio(float64(same), float64(len(hops)))
	dd := drainAfter.Diff(drainBefore)
	lv["orchestrator.spine_mb"] = mb(dd.Sum("fabric", "uplink_tx_bytes") + dd.Sum("fabric", "uplink_rx_bytes"))
	lv["tenant.burst_p50_us"], lv["tenant.burst_max_ms"] = 0, 0
	r.res.LayerHost["runc.migrate_wall_ms.p50"] = ms(drainWall) / float64(len(hops))
	r.res.LayerHost["tenant.open_s"] = 0
	return nil
}
