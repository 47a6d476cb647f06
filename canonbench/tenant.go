package main

import (
	"fmt"
	"math/rand"
	"time"

	"migrrdma/internal/cluster"
	"migrrdma/internal/core"
	"migrrdma/internal/metrics"
	"migrrdma/internal/runc"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
	"migrrdma/internal/tenant"
)

// tenant-pingpong: a 2000-session tenant service carrying a
// page-dirtying working set is migrated back and forth under pipelined
// transfer and plug-forward cutover, while a closed-loop driver submits
// one op per session per burst and waits for each burst to drain. It
// moves the receiver side, with the plug and the page channel — the
// opposite corner of the migration layers from linerate-pingpong.
const (
	tnSessions = 2000
	tnHops     = 4

	// The working set: hot pages change content every epoch, zero and
	// constant pages are rewritten unchanged (dirty, but elided by the
	// page channel's zero and content-hash checks).
	tnPages    = 192
	tnHot      = 24
	tnZero     = 24
	tnInterval = 200 * time.Microsecond

	// tnBursts is the closed loop's fixed length. At tnThink it outlasts
	// the hop sequence, so every hop lands inside the loop and the op
	// count is the same at every seed. tnThink is the pause between one
	// burst draining and the next being submitted. The gateway pump
	// scans every session per iteration, so a burst costs far more host
	// time than its ops; the pause keeps a round to a few seconds while
	// bursts still land in every blackout window.
	tnBursts = 26
	tnThink  = 4 * time.Millisecond
)

// tnInputs are the seed-derived inputs: the working set's page roles
// and hot-content phase, the warm-up, and the dwell between hops.
type tnInputs struct {
	ws     *workingSet
	warmup time.Duration
	dwell  []time.Duration
}

func tenantInputs(seed int64) tnInputs {
	rng := rand.New(rand.NewSource(seed))
	in := tnInputs{ws: newWorkingSet(rng, tnPages, tnHot, tnZero, tnInterval)}
	// The timing jitter is narrow: the hops' phase against the 4ms burst
	// cycle decides whether a hop's page rounds overlap a burst, and a
	// wide jitter would flip seeds between those two regimes.
	in.warmup = jitter(rng, 2*time.Millisecond, 100*time.Microsecond)
	for i := 0; i < tnHops; i++ {
		in.dwell = append(in.dwell, jitter(rng, 1500*time.Microsecond, 100*time.Microsecond))
	}
	return in
}

func runTenant(r *round) error {
	in := tenantInputs(r.seed)

	build := time.Now()
	hosts := []string{"h0", "h1", "gw"}
	cfg := cluster.FastCheckpointTestbed(r.seed)
	// rnr_retry=7 semantics: requests in flight at freeze retry through
	// the blackout instead of erroring out.
	cfg.NIC.MaxRetries = 1 << 20
	cl := cluster.New(cfg, hosts...)
	daemons := make(map[string]*core.Daemon, len(hosts))
	for _, h := range hosts {
		daemons[h] = core.NewDaemon(cl.Host(h))
	}
	r.res.LayerHost["cluster.build_s"] = time.Since(build).Seconds()

	opts := tenant.Options{
		Sessions: tnSessions, Lanes: 8, LaneDepth: 64,
		Credits: 16, RefillAmount: 16, RefillEvery: 20 * time.Microsecond,
	}
	sched := cl.Sched
	svc := tenant.NewService(sched, "svc", opts)
	gw := tenant.NewGateway(sched, "gw", opts, tenant.Target{Node: "h0", Name: "svc"})
	svcCont := runc.NewContainer(cl.Host("h0"), "svc-cont")
	svcCont.Start(func(tp *task.Process) { svc.Run(tp, daemons["h0"]) })
	gwCont := runc.NewContainer(cl.Host("gw"), "gw-cont")
	var openStart time.Time
	sched.Go("start-gw", func() {
		svc.WaitReady()
		openStart = time.Now()
		gwCont.Start(func(tp *task.Process) { gw.Run(tp, daemons["gw"]) })
	})
	stopSet, err := in.ws.start(sched, svcCont.Procs[0])
	if err != nil {
		return fmt.Errorf("tenant: map working set: %w", err)
	}

	mopts := runc.DefaultMigrateOptions()
	mopts.Cutover = runc.CutoverPlugForward
	mopts.Transfer = runc.TransferPipelined
	var (
		hops                  []hop
		bursts                []float64
		before                *metrics.Snapshot
		readyAt, stopAt       time.Duration
		firstSubmit, lastDone time.Duration
		burstsEnded, done     bool
	)
	burstsDone := sim.NewCond(sched, "bench-bursts-done")
	sched.Go("bench-driver", func() {
		gw.WaitReady()
		r.res.LayerHost["tenant.open_s"] = time.Since(openStart).Seconds()
		r.markReady(sched.Now())
		readyAt = sched.Now()
		before = cl.Metrics.Snapshot()
		sched.Go("bench-bursts", func() {
			for i := 0; i < tnBursts; i++ {
				t := sched.Now()
				gw.SubmitAll(1)
				gw.Drain()
				bursts = append(bursts, us(sched.Now()-t))
				sched.Sleep(tnThink)
			}
			burstsEnded = true
			burstsDone.Broadcast()
		})
		warm := r.spans.begin("warm-up", r.root, sched.Now())
		sched.Sleep(in.warmup)
		r.spans.end(warm, sched.Now())
		firstSubmit = sched.Now()
		for i := 0; i < tnHops; i++ {
			src, dst := hosts[i%2], hosts[(i+1)%2]
			h, err := migrate(r, svcCont, daemons[src], daemons[dst], mopts, i)
			if err != nil {
				r.note("hop %d %s→%s: %v", i, src, dst, err)
				break
			}
			hops = append(hops, h)
			lastDone = sched.Now()
			sched.Sleep(in.dwell[i])
		}
		for !burstsEnded {
			burstsDone.Wait()
		}
		stopSet()
		gw.Stop()
		gw.Wait()
		svc.Stop()
		done = true
		stopAt = sched.Now()
		sched.Stop()
	})
	sched.RunFor(10 * time.Minute)
	r.markStopped(sched.Now())
	if !done {
		return fmt.Errorf("tenant: driver did not finish by the horizon")
	}
	after := cl.Metrics.Snapshot()
	r.ops("migrations", tnHops, tnHops-int64(len(hops)))
	viol := gw.CheckInvariants()
	for _, v := range viol {
		r.note("tenant: %s", v)
	}
	r.ops("tenant ops", gw.Stats.Submitted, absDiff(gw.Stats.Submitted, gw.Stats.AckedOK)+int64(len(viol)))
	if len(hops) == 0 {
		return nil
	}
	r.recordMigrations(hops)
	r.recordRegistry(before, after)
	r.res.Virtual["app_ops_per_s"] = ratio(float64(gw.Stats.AckedOK), (stopAt - readyAt).Seconds())
	r.res.Virtual["drain_window_ms"] = ms(lastDone - firstSubmit)
	lv := r.res.LayerVirtual
	lv["tenant.burst_p50_us"] = p50(bursts)
	lv["tenant.burst_max_ms"] = maxOf(bursts) / 1e3
	lv["orchestrator.same_rack_share"], lv["orchestrator.spine_mb"] = 0, 0
	return nil
}
