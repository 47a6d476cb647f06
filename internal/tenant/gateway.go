package tenant

import (
	"fmt"
	"math/bits"
	"time"

	"migrrdma/internal/core"
	"migrrdma/internal/mem"
	"migrrdma/internal/metrics"
	"migrrdma/internal/oob"
	"migrrdma/internal/rnic"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// TenantSession is the gateway-side record of one tenant session. The
// counters double as the invariant ledger: exactly-once/in-order
// acknowledgement tracking lives here, so the chaos tier reads the
// guarantees straight off the data structures that enforce them.
type TenantSession struct {
	ID    uint32
	Token uint32
	gw    *Gateway
	idx   int // position in gw.sessions (its ready-bitmap bit)
	lane  int

	pendingData   int      // submitted operations not yet on the wire
	pendingProbes []uint32 // cross-tenant tokens to claim, FIFO

	sent    uint64 // next sequence number to assign
	nextAck uint64 // next acknowledgement expected (in-order check)
	// inflight maps a sent sequence number to the token it claimed;
	// removal on acknowledgement is the exactly-once check.
	inflight map[uint64]uint32

	DataSubmitted   int64
	ProbesSubmitted int64
	AckedOK         int64
	NAKCross        int64
	NAKUnknown      int64
	NAKBounds       int64

	// credits is the bucket balance as of lastRefill, the last whole
	// refill tick applied; the balance at any later instant is a pure
	// function of the two (refilled).
	credits    int
	lastRefill time.Duration
	stalled    bool
	closed     bool
}

// Pending returns the session's queued (not yet sent) operation count.
func (s *TenantSession) Pending() int { return s.pendingData + len(s.pendingProbes) }

// Inflight returns the session's unacknowledged operation count.
func (s *TenantSession) Inflight() int { return len(s.inflight) }

// Credits returns the session's admission credit balance as of the
// current virtual time. It is a read: the bucket is refilled lazily.
func (s *TenantSession) Credits() int {
	c, _ := s.refilled(s.gw.sched.Now())
	return c
}

// refilled returns the bucket balance and refill mark as of now: the
// bucket gains RefillAmount per whole RefillEvery elapsed since
// lastRefill, capped at Credits. Floor division adds up and the cap
// composes (min(min(a+x,C)+y,C) = min(a+x+y,C) for y >= 0), so applying
// it once at touch time equals applying it at every tick in between.
func (s *TenantSession) refilled(now time.Duration) (int, time.Duration) {
	o := &s.gw.Opts
	ticks := int64((now - s.lastRefill) / o.RefillEvery)
	if ticks <= 0 {
		return s.credits, s.lastRefill
	}
	return min(s.credits+int(ticks)*o.RefillAmount, o.Credits),
		s.lastRefill + time.Duration(ticks)*o.RefillEvery
}

// GatewayStats aggregates the mux-side outcome counts.
type GatewayStats struct {
	Submitted    int64
	Probes       int64
	AckedOK      int64
	NAKs         int64
	CreditStalls int64 // sessions that hit an empty bucket and queued
	Errors       []string
}

func (st *GatewayStats) errf(format string, args ...any) {
	if len(st.Errors) < 32 {
		st.Errors = append(st.Errors, fmt.Sprintf(format, args...))
	}
}

// Gateway is the tenants' host-side multiplexer: it owns the lane QPs
// facing one Service and pumps every tenant session's operations
// through them under per-tenant credit admission.
type Gateway struct {
	Name   string
	Opts   Options
	Target Target
	Sess   *core.Session
	Stats  GatewayStats

	// Violations lists tenancy invariant breaches observed on the
	// acknowledgement stream (duplicate, out-of-order, misdirected or
	// wrongly-admitted responses). Empty means the run held.
	Violations []string

	sched   *sim.Scheduler
	ready   *sim.Cond
	doneC   *sim.Cond
	workC   *sim.Cond
	idleC   *sim.Cond
	isReady bool
	stopped bool
	done    bool

	pd           *core.PD
	cq           *core.CQ
	mr           *core.MR
	ep           *oob.Endpoint
	lanes        []*core.QP
	laneSent     []uint64 // per-lane wire sequence (tx slot cycling)
	laneInflight []int    // per-lane unacknowledged requests
	// laneReady holds one bitmap per lane over session indices: bit i
	// is set while sessions[i] rides that lane and has queued work.
	laneReady [][]uint64

	sessions []*TenantSession
	sessByID map[uint32]*TenantSession
	pending  int // queued operations across all sessions
	inflight int // unacknowledged requests across all lanes

	// onPost, when set, observes every request the instant it is on the
	// wire (the post-trace tests hash this stream).
	onPost func(s *TenantSession, seq uint64, claimed uint32)

	mSubmitted, mProbes, mStalls *metrics.Counter
}

// NewGateway creates a gateway descriptor; Run starts it in a process.
func NewGateway(sched *sim.Scheduler, name string, opts Options, target Target) *Gateway {
	return &Gateway{
		Name: name, Opts: opts.withDefaults(), Target: target,
		sched:    sched,
		ready:    sim.NewCond(sched, "tenant-gw-ready:"+name),
		doneC:    sim.NewCond(sched, "tenant-gw-done:"+name),
		workC:    sim.NewCond(sched, "tenant-gw-work:"+name),
		idleC:    sim.NewCond(sched, "tenant-gw-idle:"+name),
		sessByID: make(map[uint32]*TenantSession),
	}
}

// Arena layout: lane request ring, then lane response receive ring.
func (g *Gateway) txSlot(lane, idx int) mem.Addr {
	return tenantArena + mem.Addr((lane*g.Opts.LaneDepth+idx)*g.Opts.MsgSize)
}

func (g *Gateway) rxSlot(lane, idx int) mem.Addr {
	base := g.Opts.Lanes * g.Opts.LaneDepth * g.Opts.MsgSize
	return tenantArena + mem.Addr(base+(lane*g.Opts.recvDepth()+idx)*g.Opts.MsgSize)
}

func (g *Gateway) arenaSize() uint64 {
	return uint64(g.Opts.Lanes * (g.Opts.LaneDepth + g.Opts.recvDepth()) * g.Opts.MsgSize)
}

// Run is the gateway process main: map the arena, connect the lanes,
// open the initial session population and pump until Stop and drain.
func (g *Gateway) Run(p *task.Process, d *core.Daemon) {
	o := g.Opts
	sess := core.NewSession(p, d)
	g.Sess = sess
	if _, err := p.AS.Map(tenantArena, g.arenaSize(), "tenant-gw"); err != nil {
		panic(err)
	}
	g.pd = sess.AllocPD()
	g.cq = sess.CreateCQ(64+o.Lanes*(2*o.LaneDepth+o.recvDepth()), nil)
	mr, err := sess.RegMR(g.pd, tenantArena, g.arenaSize(), rnic.AccessLocalWrite)
	if err != nil {
		panic(err)
	}
	g.mr = mr
	reg := d.Host().Metrics
	l := metrics.Labels{"gw": g.Name}
	g.mSubmitted = reg.Counter("tenant", "gw_ops_submitted", l)
	g.mProbes = reg.Counter("tenant", "gw_probes_submitted", l)
	g.mStalls = reg.Counter("tenant", "gw_credit_stalls", l)

	g.ep = d.Host().Hub.Endpoint("tenant-gw:" + g.Name)
	g.attach(d)
	if _, err := g.OpenMore(o.Sessions); err != nil {
		panic("tenant gateway open: " + err.Error())
	}
	g.isReady = true
	g.ready.Broadcast()
	g.pump(p)
	g.done = true
	g.doneC.Broadcast()
}

// attach brings up the lane QPs against the service.
func (g *Gateway) attach(d *core.Daemon) {
	o := g.Opts
	req := attachReq{Node: d.Node()}
	for lane := 0; lane < o.Lanes; lane++ {
		qp := g.Sess.CreateQP(g.pd, core.QPConfig{
			Type: rnic.RC, SendCQ: g.cq, RecvCQ: g.cq,
			Caps: rnic.QPCaps{MaxSend: 2 * o.LaneDepth, MaxRecv: o.recvDepth() + 8},
		})
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateInit}); err != nil {
			panic(err)
		}
		for i := 0; i < o.recvDepth(); i++ {
			wr := rnic.RecvWR{WRID: laneWRID(lane, i), SGEs: []rnic.SGE{{
				Addr: g.rxSlot(lane, i), Len: uint32(o.MsgSize), LKey: g.mr.LKey(),
			}}}
			if err := qp.PostRecv(wr); err != nil {
				panic(err)
			}
		}
		g.lanes = append(g.lanes, qp)
		g.laneSent = append(g.laneSent, 0)
		g.laneInflight = append(g.laneInflight, 0)
		g.laneReady = append(g.laneReady, nil)
		req.Lanes = append(req.Lanes, qp.VQPN())
	}
	var resp attachResp
	decGob(g.ep.Call(g.Target.Node, "tenant:"+g.Target.Name, "attach", encGob(req)), &resp)
	if resp.Err != "" {
		panic("tenant attach: " + resp.Err)
	}
	for lane, peer := range resp.Lanes {
		qp := g.lanes[lane]
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTR, RemoteNode: g.Target.Node, RemoteQPN: peer}); err != nil {
			panic(err)
		}
		if err := qp.Modify(rnic.ModifyAttr{State: rnic.StateRTS}); err != nil {
			panic(err)
		}
	}
}

// OpenMore opens count additional tenant sessions over the OOB
// handshake and returns the index of the first new session. Safe to
// call from a driver proc while the pump runs.
func (g *Gateway) OpenMore(count int) (int, error) {
	var resp openResp
	decGob(g.ep.Call(g.Target.Node, "tenant:"+g.Target.Name, "open", encGob(openReq{Count: count})), &resp)
	if resp.Err != "" {
		return 0, fmt.Errorf("%s", resp.Err)
	}
	first := len(g.sessions)
	now := g.sched.Now()
	for i := 0; i < count; i++ {
		id := resp.Base + uint32(i)
		s := &TenantSession{
			ID: id, Token: resp.TokenBase ^ (id * resp.TokenMul),
			gw: g, idx: len(g.sessions),
			lane:     int(id) % g.Opts.Lanes,
			inflight: make(map[uint64]uint32),
			credits:  g.Opts.Credits, lastRefill: now,
		}
		g.sessions = append(g.sessions, s)
		g.sessByID[id] = s
	}
	words := (len(g.sessions) + 63) / 64
	for lane, r := range g.laneReady {
		g.laneReady[lane] = append(r, make([]uint64, words-len(r))...)
	}
	return first, nil
}

// CloseSession retires session i over the OOB handshake. The caller
// must have drained the session first (no pending or in-flight
// operations); later submissions against it are invariant violations.
func (g *Gateway) CloseSession(i int) error {
	s := g.sessions[i]
	var resp closeResp
	decGob(g.ep.Call(g.Target.Node, "tenant:"+g.Target.Name, "close",
		encGob(closeReq{Sess: s.ID, Token: s.Token})), &resp)
	if resp.Err != "" {
		return fmt.Errorf("%s", resp.Err)
	}
	s.closed = true
	return nil
}

// WaitReady blocks until the lanes are connected and the initial
// sessions are open.
func (g *Gateway) WaitReady() {
	for !g.isReady {
		g.ready.Wait()
	}
}

// Wait blocks until the pump exited (Stop plus full drain).
func (g *Gateway) Wait() {
	for !g.done {
		g.doneC.Wait()
	}
}

// Stop makes the pump exit once every queued and in-flight operation
// has been acknowledged — queued work is drained, never dropped.
func (g *Gateway) Stop() {
	g.stopped = true
	g.workC.Broadcast()
}

// Submit queues n data operations on session i.
func (g *Gateway) Submit(i, n int) {
	s := g.sessions[i]
	s.pendingData += n
	g.pending += n
	g.markReady(s)
	s.DataSubmitted += int64(n)
	g.Stats.Submitted += int64(n)
	g.mSubmitted.Add(int64(n))
	g.workC.Broadcast()
}

// SubmitAll queues n data operations on every open session.
func (g *Gateway) SubmitAll(n int) {
	for i, s := range g.sessions {
		if !s.closed {
			g.Submit(i, n)
		}
	}
}

// Probe queues a cross-tenant access attempt: session i will claim
// session victim's namespace token. The service must NAK it.
func (g *Gateway) Probe(i, victim int) {
	s := g.sessions[i]
	s.pendingProbes = append(s.pendingProbes, g.sessions[victim].Token)
	g.pending++
	g.markReady(s)
	s.ProbesSubmitted++
	g.Stats.Probes++
	g.mProbes.Inc()
	g.workC.Broadcast()
}

// Drain blocks until no operation is pending or in flight.
func (g *Gateway) Drain() {
	for g.pending+g.inflight > 0 {
		g.idleC.Wait()
	}
}

// Session returns the i-th session's ledger for assertions.
func (g *Gateway) Session(i int) *TenantSession { return g.sessions[i] }

// NumSessions returns the session count (open and closed).
func (g *Gateway) NumSessions() int { return len(g.sessions) }

// markReady sets session s's ready bit once it has queued work.
func (g *Gateway) markReady(s *TenantSession) {
	if s.Pending() > 0 {
		g.laneReady[s.lane][s.idx/64] |= 1 << (s.idx % 64)
	}
}

// pump is the mux loop: move queued operations onto lanes, consume
// completions. It waits on the CQ while work is in flight, on the
// refill clock while work is queued on credits, and on the work
// condition when idle. Its cost follows the work done, not the session
// count: totals are running counters, credits refill on touch and the
// send pass visits only sessions with queued work on a lane with room.
func (g *Gateway) pump(p *task.Process) {
	for {
		p.Gate()
		progress := g.trySend()
		polled := false
		for _, e := range g.cq.Poll(64) {
			g.complete(e)
			polled = true
		}
		if progress || polled {
			continue
		}
		switch {
		case g.stopped && g.pending == 0 && g.inflight == 0:
			return
		case g.inflight > 0:
			g.cq.WaitNonEmpty()
		case g.pending > 0:
			g.sched.Sleep(g.Opts.RefillEvery)
		default:
			g.workC.Wait()
		}
	}
}

// trySend moves queued operations onto lanes, round-robin across
// sessions in index order, until every session is blocked on its lane
// window, its credit bucket or an empty queue. Probes go first (they
// bypass admission — an attacker does not wait politely); data spends
// one credit per operation, refilled on touch.
//
// Each pass walks the session index space a 64-bit word at a time,
// visiting the set bits of the OR of the ready bitmaps of lanes that
// still have window room. Lanes only fill during a pass and no
// submission lands inside one (PostSend never parks), so the visits
// are exactly the sessions the full scan would reach with work queued
// and lane room, in the same order.
func (g *Gateway) trySend() bool {
	now := g.sched.Now()
	progress := false
	for again := true; again; {
		again = false
		for w := 0; w < len(g.sessions); w += 64 {
			word, open := g.readyWord(w / 64)
			if !open {
				return progress
			}
			for ; word != 0; word &= word - 1 {
				s := g.sessions[w+bits.TrailingZeros64(word)]
				if g.laneInflight[s.lane] >= g.Opts.LaneDepth {
					continue
				}
				posted, err := g.sendOne(s, now)
				if err != nil {
					g.Stats.errf("post session %d: %v", s.ID, err)
					return progress
				}
				if posted {
					again, progress = true, true
				}
			}
		}
	}
	return progress
}

// readyWord ORs word wi of the ready bitmaps of every lane with window
// room; open reports whether any lane has room at all.
func (g *Gateway) readyWord(wi int) (word uint64, open bool) {
	for lane, r := range g.laneReady {
		if g.laneInflight[lane] < g.Opts.LaneDepth {
			word |= r[wi]
			open = true
		}
	}
	return word, open
}

// sendOne posts session s's next queued operation, if admission lets
// it: a probe always, a data operation only on a credit (refilled to
// now first). An empty bucket latches the session's stall.
func (g *Gateway) sendOne(s *TenantSession, now time.Duration) (bool, error) {
	var claimed uint32
	probe := len(s.pendingProbes) > 0
	if probe {
		claimed = s.pendingProbes[0]
	} else {
		s.credits, s.lastRefill = s.refilled(now)
		if s.credits <= 0 {
			if !s.stalled {
				s.stalled = true
				g.Stats.CreditStalls++
				g.mStalls.Inc()
			}
			return false, nil
		}
		claimed = s.Token
	}
	if err := g.post(s, claimed); err != nil {
		return false, err
	}
	if probe {
		s.pendingProbes = s.pendingProbes[1:]
	} else {
		s.pendingData--
		s.credits--
		s.stalled = false
	}
	g.pending--
	if s.Pending() == 0 {
		g.laneReady[s.lane][s.idx/64] &^= 1 << (s.idx % 64)
	}
	return true, nil
}

// post stamps one request into the session's lane ring and sends it.
func (g *Gateway) post(s *TenantSession, claimed uint32) error {
	o := g.Opts
	lane := s.lane
	seq := s.sent
	idx := int(g.laneSent[lane] % uint64(o.LaneDepth))
	addr := g.txSlot(lane, idx)
	h := header{Sess: s.ID, Token: claimed, Seq: seq, Kind: kindData,
		Off: uint32((seq % 7) * 8), Stamp: seq}
	if err := writeHeader(g.Sess.Proc.AS, addr, h); err != nil {
		return err
	}
	wr := rnic.SendWR{
		WRID: g.laneSent[lane], Opcode: rnic.OpSend, Signaled: true,
		SGEs: []rnic.SGE{{Addr: addr, Len: uint32(o.MsgSize), LKey: g.mr.LKey()}},
	}
	if err := g.lanes[lane].PostSend(wr); err != nil {
		return err
	}
	g.laneSent[lane]++
	g.laneInflight[lane]++
	g.inflight++
	s.inflight[seq] = claimed
	s.sent++
	if g.onPost != nil {
		g.onPost(s, seq, claimed)
	}
	return nil
}

func (g *Gateway) violationf(format string, args ...any) {
	if len(g.Violations) < 64 {
		g.Violations = append(g.Violations, fmt.Sprintf(format, args...))
	}
}

// complete handles one completion. Request-send completions only free
// CQ space; response receives drive the acknowledgement ledger.
func (g *Gateway) complete(e rnic.CQE) {
	if e.Status != rnic.WCSuccess {
		g.Stats.errf("gateway CQE error: %v (wrid %#x)", e.Status, e.WRID)
		return
	}
	if e.Opcode != rnic.OpRecv {
		return
	}
	lane, idx := laneOf(e.WRID), slotOf(e.WRID)
	if lane >= len(g.lanes) {
		g.Stats.errf("recv completion for unknown lane %d", lane)
		return
	}
	addr := g.rxSlot(lane, idx)
	h, err := readHeader(g.Sess.Proc.AS, addr)
	if err != nil {
		g.Stats.errf("read response header: %v", err)
		return
	}
	g.laneInflight[lane]--
	g.inflight--
	// Repost before accounting so the service can never overrun the
	// response ring.
	wr := rnic.RecvWR{WRID: e.WRID, SGEs: []rnic.SGE{{
		Addr: addr, Len: uint32(g.Opts.MsgSize), LKey: g.mr.LKey(),
	}}}
	if err := g.lanes[lane].PostRecv(wr); err != nil {
		g.Stats.errf("repost recv: %v", err)
	}
	g.account(lane, h)
	if g.pending+g.inflight == 0 {
		g.idleC.Broadcast()
	}
}

// account applies one acknowledgement to the session ledger, recording
// every tenancy invariant breach it can observe: unknown or
// misdirected responses, duplicate or out-of-order acknowledgement,
// payload stamp corruption, a cross-tenant claim that was not NAKed,
// and a legitimate operation that was rejected.
func (g *Gateway) account(lane int, h header) {
	if h.Kind != kindResp {
		g.violationf("lane %d: response with kind %d", lane, h.Kind)
		return
	}
	s := g.sessByID[h.Sess]
	if s == nil {
		g.violationf("ack for unknown session %d", h.Sess)
		return
	}
	if s.lane != lane {
		g.violationf("session %d: ack on lane %d, want %d", h.Sess, lane, s.lane)
	}
	claimed, wasInflight := s.inflight[h.Seq]
	if !wasInflight {
		g.violationf("session %d: duplicate or unsolicited ack seq %d", h.Sess, h.Seq)
		return
	}
	delete(s.inflight, h.Seq)
	if h.Seq != s.nextAck {
		g.violationf("session %d: ack seq %d, want %d (order)", h.Sess, h.Seq, s.nextAck)
	}
	s.nextAck = h.Seq + 1
	if h.Stamp != h.Seq {
		g.violationf("session %d: ack stamp %d, want %d (corruption)", h.Sess, h.Stamp, h.Seq)
	}
	probe := claimed != s.Token
	switch {
	case probe && h.Status == StatusCrossTenant:
		s.NAKCross++
		g.Stats.NAKs++
	case probe:
		g.violationf("session %d: cross-tenant claim %#x admitted with status %d (isolation breach)",
			h.Sess, claimed, h.Status)
	case h.Status == StatusOK:
		s.AckedOK++
		g.Stats.AckedOK++
	case h.Status == StatusUnknownSession && s.closed:
		s.NAKUnknown++
		g.Stats.NAKs++
	case h.Status == StatusBounds:
		s.NAKBounds++
		g.Stats.NAKs++
		g.violationf("session %d: in-slice write seq %d rejected for bounds", h.Sess, h.Seq)
	default:
		g.violationf("session %d: data op seq %d rejected with status %d", h.Sess, h.Seq, h.Status)
	}
}

// CheckInvariants audits the final ledger once traffic has drained:
// nothing queued, nothing in flight, every data operation acknowledged
// exactly once, every cross-tenant probe NAKed. It appends to (and
// returns) the violations observed live on the acknowledgement stream.
func (g *Gateway) CheckInvariants() []string {
	v := append([]string{}, g.Violations...)
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	for _, s := range g.sessions {
		if n := s.Pending(); n != 0 {
			add("session %d: %d operations still queued (dropped work)", s.ID, n)
		}
		if n := len(s.inflight); n != 0 {
			add("session %d: %d operations never acknowledged", s.ID, n)
		}
		if s.AckedOK != s.DataSubmitted {
			add("session %d: %d data ops submitted, %d acknowledged (exactly-once breach)",
				s.ID, s.DataSubmitted, s.AckedOK)
		}
		if s.NAKCross != s.ProbesSubmitted {
			add("session %d: %d cross-tenant probes, %d NAKed (isolation breach)",
				s.ID, s.ProbesSubmitted, s.NAKCross)
		}
	}
	for _, e := range g.Stats.Errors {
		add("gateway error: %s", e)
	}
	return v
}
