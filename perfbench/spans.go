package main

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"
)

// A span is one timed interval of the traced run. Spans nest
// workload → cell → call: a call's Parent is its cell's span, a cell's
// Parent is its pass's workload span. Every span of one cell carries the
// cell span's ID as Cell.
type span struct {
	Name   string
	Label  string // the cell key ("" for workload spans)
	ID     int
	Parent int // 0: none
	Cell   int // 0: not inside a cell
	Start  time.Time
	Dur    time.Duration
}

// spanLog keeps spans in memory until the run ends. Spans are added when
// they end, so a parent follows its children.
type spanLog struct {
	mu     sync.Mutex
	epoch  time.Time
	lastID int
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) newID() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lastID++
	return l.lastID
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// mark returns a position in the log; sums(mark) covers spans added after it.
func (l *spanLog) mark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// sums totals the durations of the call spans added since mark, by name.
func (l *spanLog) sums(mark int) map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range l.spans[mark:] {
		if s.Cell != 0 && s.ID != s.Cell {
			out[s.Name] += s.Dur
		}
	}
	return out
}

// durations returns every call span's duration added since mark, by name.
func (l *spanLog) durations(mark int) map[string][]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][]time.Duration)
	for _, s := range l.spans[mark:] {
		if s.Cell != 0 && s.ID != s.Cell {
			out[s.Name] = append(out[s.Name], s.Dur)
		}
	}
	return out
}

// chromeEvent is one entry of the trace-event format's traceEvents array
// (the format tmprof's Perfetto exports use).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one complete
// ("X") event per span, microsecond timestamps from the log's epoch.
// Spans run on one worker in the traced run, so they share one track
// and nest by time.
func (l *spanLog) writeChrome(w io.Writer, process string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "worker"}},
	}
	for _, s := range l.spans {
		cat := "call"
		switch {
		case s.Cell == 0:
			cat = "workload"
		case s.ID == s.Cell:
			cat = "cell"
		default:
			if i := strings.IndexByte(s.Name, '.'); i > 0 {
				cat = s.Name[:i]
			}
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "cell": s.Cell}
		if s.Label != "" {
			args["label"] = s.Label
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Sub(l.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
}
