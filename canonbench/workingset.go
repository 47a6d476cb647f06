package main

import (
	"math/rand"
	"time"

	"migrrdma/internal/mem"
	"migrrdma/internal/sim"
	"migrrdma/internal/task"
)

// wsBase is where a working set is mapped in its process.
const wsBase = mem.Addr(0x5400_0000_0000)

// rampSpan is how many epochs pass before a hot page's content
// repeats: 4096 × the 200µs interval is far longer than a round, so an
// unchanged-content elision never fires on a hot page by accident.
const rampSpan = 4096

// ramp backs every hot page: hot page i at epoch e holds
// ramp[(e+i+phase)%rampSpan:][:PageSize], so fresh content every epoch
// costs no byte-fill loop. The bytes are pseudo-random so that no two
// offsets give the same page. zeroPage backs the zero pages.
var (
	ramp     = makeRamp()
	zeroPage = make([]byte, mem.PageSize)
)

func makeRamp() []byte {
	b := make([]byte, mem.PageSize+rampSpan)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}

// workingSet is an application heap the benchmark attaches to a
// migrated process. Every interval, while the process runs and is not
// frozen, it rewrites each page: hot pages with new content, zero and
// constant pages with what they already hold (dirty for the tracker,
// elidable for the page channel). All content is precomputed, so the
// generator costs little beyond the mem writes it exists to cause.
type workingSet struct {
	pages    [][]byte // nil for a hot page
	phase    int
	interval time.Duration
}

// newWorkingSet draws a working set of total pages, hot of them hot
// and zero of them zero, the rest constant; the seed places the roles.
func newWorkingSet(rng *rand.Rand, total, hot, zero int, interval time.Duration) *workingSet {
	ws := &workingSet{pages: make([][]byte, total), phase: rng.Intn(rampSpan), interval: interval}
	for k, i := range rng.Perm(total) {
		switch {
		case k < hot:
		case k < hot+zero:
			ws.pages[i] = zeroPage
		default:
			c := make([]byte, mem.PageSize)
			for j := range c {
				c[j] = byte(i)
			}
			ws.pages[i] = c
		}
	}
	return ws
}

// start maps the working set into p and runs its writer until p exits
// or stop is called.
func (ws *workingSet) start(sched *sim.Scheduler, p *task.Process) (stop func(), err error) {
	if _, err := p.AS.Map(wsBase, uint64(len(ws.pages))*mem.PageSize, "appstate"); err != nil {
		return nil, err
	}
	stopped := false
	sched.Go("working-set:"+p.Name, func() {
		for epoch := 1; !p.Exited() && !stopped; epoch++ {
			if !p.Frozen() {
				for i, buf := range ws.pages {
					if buf == nil {
						off := (epoch + i + ws.phase) % rampSpan
						buf = ramp[off : off+mem.PageSize]
					}
					if err := p.AS.Write(wsBase+mem.Addr(i*mem.PageSize), buf); err != nil {
						return // unmapped mid-teardown
					}
				}
			}
			sched.Sleep(ws.interval)
		}
	})
	return func() { stopped = true }, nil
}
