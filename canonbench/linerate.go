package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/metrics"
	"migrrdma/internal/perftest"
	"migrrdma/internal/rnic"
	"migrrdma/internal/runc"
	"migrrdma/internal/task"
)

// linerate-pingpong: an order-checked 4 KiB SEND client at line rate
// (8 QPs × queue depth 64) whose container — the sender — is migrated
// back and forth between two hosts a fixed number of times under the
// paper's workflow (go-back-N cutover, monolithic transfer).
const (
	lrQPs   = 8
	lrDepth = 64
	lrMsg   = 4096
	// lrHops is fixed: repeated migration of one container is part of
	// what the workload measures (per-hop VMA growth shows up in
	// mem.vmas_* and in the blackout tail).
	lrHops = 4
	// The sender also keeps a small hot heap of its own, 32–39 pages
	// rewritten every 200µs; its size is a seed-drawn input that the
	// final dump, transfer and restore all scale with.
	lrHeapMin  = 32
	lrHeapSpan = 8
)

// lrInputs are the seed-derived inputs: the sender's heap, how long the
// traffic warms up before the first hop and how long the container
// dwells between hops.
type lrInputs struct {
	heap   *workingSet
	warmup time.Duration
	dwell  []time.Duration
}

func linerateInputs(seed int64) lrInputs {
	rng := rand.New(rand.NewSource(seed))
	n := lrHeapMin + rng.Intn(lrHeapSpan)
	in := lrInputs{heap: newWorkingSet(rng, n, n, 0, 200*time.Microsecond)}
	in.warmup = jitter(rng, 2*time.Millisecond, time.Millisecond)
	for i := 0; i < lrHops; i++ {
		in.dwell = append(in.dwell, jitter(rng, time.Millisecond, time.Millisecond))
	}
	return in
}

// jitter draws base + [0, spread) at microsecond granularity.
func jitter(rng *rand.Rand, base, spread time.Duration) time.Duration {
	return base + time.Duration(rng.Int63n(int64(spread/time.Microsecond)))*time.Microsecond
}

func runLinerate(r *round) error {
	in := linerateInputs(r.seed)

	build := time.Now()
	hosts := []string{"h0", "h1", "peer"}
	cl := cluster.New(cluster.FastCheckpointTestbed(r.seed), hosts...)
	daemons := make(map[string]*core.Daemon, len(hosts))
	for _, h := range hosts {
		daemons[h] = core.NewDaemon(cl.Host(h))
	}
	r.res.LayerHost["cluster.build_s"] = time.Since(build).Seconds()

	opts := perftest.Options{Verb: rnic.OpSend, MsgSize: lrMsg, QueueDepth: lrDepth, NumQPs: lrQPs, CheckOrder: true}
	srv := perftest.NewServer(cl.Sched, "srv", opts)
	srvCont := runc.NewContainer(cl.Host("peer"), "server")
	srvCont.Start(func(tp *task.Process) { srv.Run(tp, daemons["peer"]) })
	cli := perftest.NewClient(cl.Sched, "cli", opts, perftest.Target{Node: "peer", Name: "srv"})
	cliCont := runc.NewContainer(cl.Host("h0"), "client")
	sched := cl.Sched
	var stopHeap func()
	var heapErr error
	sched.Go("start-client", func() {
		srv.WaitReady()
		cliCont.Start(func(tp *task.Process) { cli.Run(tp, daemons["h0"]) })
		stopHeap, heapErr = in.heap.start(sched, cliCont.Procs[0])
	})

	var (
		hops        []hop
		before      *metrics.Snapshot
		readyAt     time.Duration
		stopAt      time.Duration
		firstSubmit time.Duration
		lastDone    time.Duration
		done        bool
	)
	sched.Go("bench-driver", func() {
		cli.WaitReady()
		if heapErr != nil {
			sched.Stop()
			return
		}
		r.markReady(sched.Now())
		readyAt = sched.Now()
		before = cl.Metrics.Snapshot()
		warm := r.spans.begin("warm-up", r.root, sched.Now())
		sched.Sleep(in.warmup)
		r.spans.end(warm, sched.Now())
		firstSubmit = sched.Now()
		for i := 0; i < lrHops; i++ {
			src, dst := hosts[i%2], hosts[(i+1)%2]
			h, err := migrate(r, cliCont, daemons[src], daemons[dst], runc.DefaultMigrateOptions(), i)
			if err != nil {
				r.note("hop %d %s→%s: %v", i, src, dst, err)
				break
			}
			hops = append(hops, h)
			lastDone = sched.Now()
			sched.Sleep(in.dwell[i])
		}
		stopHeap()
		cli.Stop()
		cli.Wait()
		// Let the server consume the last receive completions.
		sched.Sleep(100 * time.Microsecond)
		srv.Stop()
		done = true
		stopAt = sched.Now()
		sched.Stop()
	})
	sched.RunFor(10 * time.Minute)
	r.markStopped(sched.Now())
	if heapErr != nil {
		return fmt.Errorf("linerate: map sender heap: %w", heapErr)
	}
	if !done {
		return fmt.Errorf("linerate: driver did not finish by the horizon")
	}
	after := cl.Metrics.Snapshot()
	r.ops("migrations", lrHops, lrHops-int64(len(hops)))
	posted := postedOps(cli)
	r.ops("perftest sends", posted, absDiff(posted, srv.Stats.Completed)+int64(len(cli.Stats.Errors)+len(srv.Stats.Errors)))
	for _, e := range append(cli.Stats.Errors, srv.Stats.Errors...) {
		r.note("perftest: %s", e)
	}
	if cli.Stats.Completed != posted {
		r.violate("perftest: %d sends completed, %d posted", cli.Stats.Completed, posted)
	}
	if len(hops) == 0 {
		return nil
	}
	r.recordMigrations(hops)
	r.recordRegistry(before, after)
	window := stopAt - readyAt
	r.res.Virtual["app_ops_per_s"] = ratio(float64(srv.Stats.Completed), window.Seconds())
	r.res.Virtual["drain_window_ms"] = ms(lastDone - firstSubmit)
	lv := r.res.LayerVirtual
	lv["orchestrator.same_rack_share"], lv["orchestrator.spine_mb"] = 0, 0
	lv["tenant.burst_p50_us"], lv["tenant.burst_max_ms"] = 0, 0
	r.res.LayerHost["tenant.open_s"] = 0
	return nil
}

// migrate runs one hop of a ping-pong workload: the container moves
// from src to dst while the driver times the call and counts the
// migrated process's VMAs at freeze.
func migrate(r *round, c *runc.Container, src, dst *core.Daemon, opts runc.MigrateOptions, i int) (hop, error) {
	h := hop{vmas: -1}
	p := c.Procs[0]
	now := c.Host.Sched.Now
	m := &runc.Migrator{
		C: c, Dst: dst.Host(), Plug: core.NewPlugin(src, dst), Opts: opts,
		ID: "hop" + strconv.Itoa(i),
		OnStage: func(stage string) {
			if stage == "freeze" {
				h.vmas = len(p.AS.VMAs())
			}
		},
	}
	sp := r.spans.begin(fmt.Sprintf("migrate %s %s→%s", m.ID, src.Node(), dst.Node()), r.root, now())
	t := time.Now()
	rep, err := m.Migrate()
	h.wall = time.Since(t)
	r.spans.end(sp, now())
	if err != nil {
		return h, err
	}
	r.spans.phases(sp, rep)
	h.rep = rep
	return h, nil
}

// postedOps sums the client's posted sends off its public QP summary.
func postedOps(c *perftest.Client) int64 {
	var n int64
	for _, s := range c.QPStates() {
		for _, f := range strings.Fields(s) {
			if v, ok := strings.CutPrefix(f, "posted="); ok {
				x, _ := strconv.ParseInt(v, 10, 64) // the field is always an integer
				n += x
			}
		}
	}
	return n
}
