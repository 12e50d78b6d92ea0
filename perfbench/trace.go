package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps how many spans one run keeps; request spans beyond it
// are counted but not stored, so a long serve window cannot grow the
// trace without bound.
const maxSpans = 200_000

// span is one timed call into a layer. Parent is 0 for a root span;
// every span of a run shares the tracer's run id.
type span struct {
	ID, Parent int64
	Name       string
	Lane       int // display lane: 0 is the driving goroutine, 1.. are clients
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer, or
// one switched off, keeps nothing, but begin/end still time the call,
// so untraced and traced runs go through the same code.
type tracer struct {
	run     string
	t0      time.Time
	on      atomic.Bool // spans begun while off are timed but not kept
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(run string) *tracer {
	t := &tracer{run: run, t0: time.Now()}
	t.on.Store(true)
	return t
}

// open is a span in progress.
type open struct {
	t      *tracer
	id     int64
	parent int64
	lane   int
	name   string
	start  time.Time
}

// begin starts a span on lane 0.
func (t *tracer) begin(name string, parent int64) *open { return t.beginLane(name, parent, 0) }

func (t *tracer) beginLane(name string, parent int64, lane int) *open {
	o := &open{parent: parent, lane: lane, name: name, start: time.Now()}
	if t != nil && t.on.Load() {
		o.t = t
		o.id = t.nextID.Add(1)
	}
	return o
}

// end records the span and returns its duration.
func (o *open) end() time.Duration {
	now := time.Now()
	if t := o.t; t != nil {
		t.mu.Lock()
		if len(t.spans) < maxSpans {
			t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Name: o.name, Lane: o.lane,
				Start: o.start.Sub(t.t0), End: now.Sub(t.t0)})
		} else {
			t.dropped++
		}
		t.mu.Unlock()
	}
	return now.Sub(o.start)
}

// mark is the number of spans kept so far; durations(name, mark)
// then covers only spans kept after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of the spans named name kept since
// mark from.
func (t *tracer) durations(name string, from int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// children groups spans by parent; the caller holds t.mu.
func (t *tracer) children() map[int64][]span {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := t.children()
	rows := map[string]*layerTime{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.count++
		r.total += d
		r.self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	cur := p.Start
	for _, k := range kids {
		s, e := max(k.Start, cur), min(k.End, p.End)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeTable prints the per-layer self-time table.
func (t *tracer) writeTable(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range t.selfTimes() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "(%d spans beyond the %d kept were not stored)\n", t.dropped, maxSpans)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open offline.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": t.run}}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
