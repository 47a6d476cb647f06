package tenant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
	"time"
)

const postTracePath = "testdata/post_trace_hashes.json"

// postTraceGolden pins one scenario's gateway post stream: the hash of
// every (virtual time, session ID, seq, claimed token, lane) entry in
// post order, folded with the final credit-stall and acknowledgement
// counts, which are also kept in the clear for review.
type postTraceGolden struct {
	Name   string `json:"name"`
	Posts  int    `json:"posts"`
	Stalls int64  `json:"stalls"`
	Acked  int64  `json:"acked"`
	Hash   string `json:"hash"`
}

// postTraceScenario is one gateway configuration and the traffic
// script its driver runs once the gateway is ready.
type postTraceScenario struct {
	name  string
	opts  Options
	drive func(t *testing.T, r *rig)
}

func postTraceScenarios() []postTraceScenario {
	return []postTraceScenario{
		{
			// Five lanes of depth 4 under 200 sessions: every lane is full
			// most of the time, buckets (3 credits, 2 per tick) run dry in
			// the first burst, probes interleave with data, and a mid-
			// traffic open grows the session table by 60 while the first
			// burst is still queued. Drained sessions then close and the
			// survivors send one more burst off the refill-tick phase.
			name: "lanes5-depth4-stalls",
			opts: Options{
				Sessions: 200, Lanes: 5, LaneDepth: 4,
				Credits: 3, RefillAmount: 2, RefillEvery: 30 * time.Microsecond,
			},
			drive: func(t *testing.T, r *rig) {
				gw := r.gw
				gw.SubmitAll(5)
				for i := 0; i < 200; i += 17 {
					gw.Probe(i, (i+3)%200)
				}
				r.cl.Sched.Sleep(70 * time.Microsecond)
				first, err := gw.OpenMore(60)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				for i := first; i < gw.NumSessions(); i++ {
					gw.Submit(i, 4)
					if i%9 == 0 {
						gw.Probe(i, i-first)
					}
				}
				gw.Drain()
				for i := 0; i < 10; i++ {
					if err := gw.CloseSession(i); err != nil {
						t.Fatalf("close %d: %v", i, err)
					}
				}
				r.cl.Sched.Sleep(45 * time.Microsecond)
				gw.SubmitAll(2)
				gw.Drain()
			},
		},
		{
			// The benchmark's lane shape (8 × 64) at 320 sessions: closed-
			// loop bursts of one op per session, then a 20-op burst that
			// runs the 16-credit buckets dry.
			name: "lanes8-depth64-bursts",
			opts: Options{
				Sessions: 320, Lanes: 8, LaneDepth: 64,
				Credits: 16, RefillAmount: 16, RefillEvery: 20 * time.Microsecond,
			},
			drive: func(t *testing.T, r *rig) {
				gw := r.gw
				for b := 0; b < 3; b++ {
					gw.SubmitAll(1)
					gw.Drain()
					r.cl.Sched.Sleep(time.Millisecond)
				}
				gw.SubmitAll(20)
				gw.Drain()
			},
		},
		{
			// Uneven queues on three lanes with a 1-credit trickle refill:
			// a prober fires on its own clock while the data drains, the
			// table grows mid-stream, and drained sessions close.
			name: "lanes3-uneven-trickle",
			opts: Options{
				Sessions: 130, Lanes: 3, LaneDepth: 16,
				Credits: 4, RefillAmount: 1, RefillEvery: 25 * time.Microsecond,
			},
			drive: func(t *testing.T, r *rig) {
				gw := r.gw
				sched := r.cl.Sched
				for i := 0; i < gw.NumSessions(); i++ {
					if n := i % 7; n > 0 {
						gw.Submit(i, n)
					}
				}
				probed := false
				sched.Go("prober", func() {
					for k := 0; k < 8; k++ {
						sched.Sleep(40 * time.Microsecond)
						gw.Probe((k*29)%130, (k*31+5)%130)
					}
					probed = true
				})
				sched.Sleep(55 * time.Microsecond)
				first, err := gw.OpenMore(70)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				for i := first; i < gw.NumSessions(); i++ {
					gw.Submit(i, 1+i%5)
				}
				for !probed {
					sched.Sleep(10 * time.Microsecond)
				}
				gw.Drain()
				for i := 0; i < gw.NumSessions(); i += 11 {
					if err := gw.CloseSession(i); err != nil {
						t.Fatalf("close %d: %v", i, err)
					}
				}
				gw.SubmitAll(3)
				gw.Drain()
			},
		},
	}
}

// runPostTrace runs one scenario to drain and returns its golden entry.
func runPostTrace(t *testing.T, sc postTraceScenario) postTraceGolden {
	t.Helper()
	r := newRig(t, 41, sc.opts)
	h := sha256.New()
	posts := 0
	r.gw.onPost = func(s *TenantSession, seq uint64, claimed uint32) {
		var b [28]byte
		binary.LittleEndian.PutUint64(b[0:8], uint64(r.cl.Sched.Now()))
		binary.LittleEndian.PutUint32(b[8:12], s.ID)
		binary.LittleEndian.PutUint64(b[12:20], seq)
		binary.LittleEndian.PutUint32(b[20:24], claimed)
		binary.LittleEndian.PutUint32(b[24:28], uint32(s.lane))
		h.Write(b[:])
		posts++
	}
	finished := false
	r.cl.Sched.Go("driver", func() {
		r.gw.WaitReady()
		sc.drive(t, r)
		if v := r.gw.CheckInvariants(); len(v) != 0 {
			t.Errorf("invariants: %v", v)
		}
		r.finish(t)
		finished = true
	})
	r.cl.Sched.RunFor(5 * time.Second)
	if !finished {
		t.Fatal("scenario never drained")
	}
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(r.gw.Stats.CreditStalls))
	binary.LittleEndian.PutUint64(b[8:16], uint64(r.gw.Stats.AckedOK))
	h.Write(b[:])
	return postTraceGolden{
		Name: sc.name, Posts: posts,
		Stalls: r.gw.Stats.CreditStalls, Acked: r.gw.Stats.AckedOK,
		Hash: hex.EncodeToString(h.Sum(nil)),
	}
}

// TestPostTraceGolden pins the gateway's exact post sequence — global
// post order, lane assignment, probe placement and the virtual instant
// of every post — plus the stall and acknowledgement counts, at session
// counts spanning several 64-session words, a lane count that does not
// divide 64, full lanes, dry buckets, mid-traffic opens and closes.
// Any pump optimisation must leave these hashes byte-identical.
//
// Regenerate (only for an intentional change to the gateway's
// scheduling, with review of what moved) with:
//
//	UPDATE_TENANT_GOLDENS=1 go test ./internal/tenant -run TestPostTraceGolden
func TestPostTraceGolden(t *testing.T) {
	var got []postTraceGolden
	for _, sc := range postTraceScenarios() {
		g := runPostTrace(t, sc)
		if g.Stalls == 0 {
			t.Errorf("%s: no credit stalls — admission not exercised", sc.name)
		}
		got = append(got, g)
	}
	if os.Getenv("UPDATE_TENANT_GOLDENS") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(postTracePath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d post-trace goldens to %s", len(got), postTracePath)
		return
	}
	buf, err := os.ReadFile(postTracePath)
	if err != nil {
		t.Fatalf("missing goldens (run with UPDATE_TENANT_GOLDENS=1 to capture): %v", err)
	}
	var want []postTraceGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]postTraceGolden, len(want))
	for _, w := range want {
		wantBy[w.Name] = w
	}
	for _, g := range got {
		w, ok := wantBy[g.Name]
		if !ok {
			t.Errorf("%s: no golden recorded", g.Name)
			continue
		}
		if g != w {
			t.Errorf("%s: post trace drifted\n  want %+v\n  got  %+v", g.Name, w, g)
		}
	}
}
