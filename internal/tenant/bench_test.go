package tenant

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkGatewayPump measures the gateway mux loop's host cost as the
// session count grows: each iteration is one closed-loop burst of one
// op per session over 8 lanes × depth 64, drained before the next. The
// reported host-ns/ack is wall time per acknowledged op over the
// measured bursts; a pump whose cost follows the work keeps it roughly
// flat across session counts.
func BenchmarkGatewayPump(b *testing.B) {
	for _, n := range []int{250, 2000, 8000} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			opts := Options{Sessions: n, Lanes: 8, LaneDepth: 64}
			r := newRig(b, 51, opts)
			var (
				elapsed time.Duration
				acked   int64
				done    bool
			)
			r.cl.Sched.Go("bench-driver", func() {
				r.gw.WaitReady()
				b.ResetTimer()
				start, before := time.Now(), r.gw.Stats.AckedOK
				for i := 0; i < b.N; i++ {
					r.gw.SubmitAll(1)
					r.gw.Drain()
				}
				elapsed, acked = time.Since(start), r.gw.Stats.AckedOK-before
				b.StopTimer()
				r.finish(b)
				done = true
			})
			r.cl.Sched.RunFor(time.Hour)
			if !done {
				b.Fatal("bursts never drained")
			}
			if want := int64(b.N * n); acked != want {
				b.Fatalf("acked %d ops, want %d", acked, want)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(acked), "host-ns/ack")
		})
	}
}
