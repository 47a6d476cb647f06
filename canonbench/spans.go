package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"migrrdma/internal/runc"
)

// span is one interval of the driver's span tree. Every span carries
// a virtual (simulated) interval; the spans the driver opens around its
// calls also carry a host (wall) interval, while the phases of a
// runc.Report are virtual-only children of their migrate call.
type span struct {
	ID, Parent int
	Name       string
	// WallStart/WallEnd are offsets from the round's start; hasWall
	// is false for virtual-only spans.
	WallStart, WallEnd time.Duration
	hasWall            bool
	VirtStart, VirtEnd time.Duration
}

// spanRec keeps a round's spans in memory until export. A nil *spanRec
// records nothing, so untraced rounds pay only the nil checks.
type spanRec struct {
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span with both clocks at virtual instant now and
// returns its ID (0 when not recording; 0 is also the root parent).
func (s *spanRec) begin(name string, parent int, now time.Duration) int {
	if s == nil {
		return 0
	}
	s.spans = append(s.spans, span{
		ID: len(s.spans) + 1, Parent: parent, Name: name,
		WallStart: time.Since(s.t0), hasWall: true,
		VirtStart: now,
	})
	return len(s.spans)
}

// end closes span id at virtual instant now.
func (s *spanRec) end(id int, now time.Duration) {
	if s == nil || id == 0 {
		return
	}
	sp := &s.spans[id-1]
	sp.WallEnd = time.Since(s.t0)
	sp.VirtEnd = now
}

// virtual records a closed virtual-only span.
func (s *spanRec) virtual(name string, parent int, start, end time.Duration) int {
	if s == nil {
		return 0
	}
	s.spans = append(s.spans, span{
		ID: len(s.spans) + 1, Parent: parent, Name: name,
		VirtStart: start, VirtEnd: end,
	})
	return len(s.spans)
}

// phases records a migration report's phase timeline as virtual-only
// children of the migrate call's span.
func (s *spanRec) phases(parent int, rep *runc.Report) {
	if s == nil {
		return
	}
	for _, ph := range rep.Timeline.Phases() {
		s.virtual(ph.Name, parent, ph.Start, ph.End)
	}
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Process IDs of the two clocks in the exported trace.
const (
	pidWall    = 1
	pidVirtual = 2
)

// export writes the spans as Chrome trace-event JSON: the wall clock
// is process 1 and simulated time process 2, so a viewer shows the
// host cost and the modelled outcome of the same tree side by side.
func (s *spanRec) export(path string) error {
	events := []traceEvent{
		{Name: "process_name", Ph: "M", PID: pidWall, Args: map[string]any{"name": "host wall clock"}},
		{Name: "process_name", Ph: "M", PID: pidVirtual, Args: map[string]any{"name": "virtual time"}},
	}
	for _, sp := range s.spans {
		args := map[string]any{"id": sp.ID, "parent": sp.Parent}
		if sp.hasWall {
			events = append(events, traceEvent{Name: sp.Name, Ph: "X", PID: pidWall, TID: 1,
				TS: us(sp.WallStart), Dur: us(sp.WallEnd - sp.WallStart), Args: args})
		}
		events = append(events, traceEvent{Name: sp.Name, Ph: "X", PID: pidVirtual, TID: 1,
			TS: us(sp.VirtStart), Dur: us(sp.VirtEnd - sp.VirtStart), Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("export spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("export spans: %w", err)
	}
	return nil
}
