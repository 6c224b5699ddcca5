package obs

import (
	"fmt"
	"strings"
	"time"
)

// Span is one timed phase of a run. Spans nest: a build span has tree /
// degrees children, a recharge span has stats / upward children, an
// evaluation span has one child per worker. Spans are created through Collector.Start and Span.Child and
// closed with End; all mutations go through the collector's mutex, which
// is fine because spans are coarse (a handful per evaluation, never one
// per interaction).
//
// A nil *Span (from a nil collector) is inert: Child returns nil and End
// does nothing, so call sites never need their own nil checks.
type Span struct {
	c        *Collector
	name     string
	worker   int // -1 when not attributed to a worker
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span
}

// Start opens a new top-level span. Nil-safe: a nil collector returns a
// nil span.
func (c *Collector) Start(name string) *Span {
	if c == nil {
		return nil
	}
	s := &Span{c: c, name: name, worker: -1, start: time.Now()}
	c.mu.Lock()
	c.roots = append(c.roots, s)
	c.mu.Unlock()
	return s
}

// Child opens a nested span under s. Nil-safe.
func (s *Span) Child(name string) *Span { return s.child(name, -1) }

// ChildWorker opens a nested span attributed to a worker index, used for
// the per-goroutine slices of a parallel evaluation. Nil-safe.
func (s *Span) ChildWorker(name string, worker int) *Span { return s.child(name, worker) }

func (s *Span) child(name string, worker int) *Span {
	if s == nil {
		return nil
	}
	cs := &Span{c: s.c, name: name, worker: worker, start: time.Now()}
	s.c.mu.Lock()
	s.children = append(s.children, cs)
	s.c.mu.Unlock()
	return cs
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.c.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.c.mu.Unlock()
}

// SpanData is the exported snapshot of one span.
type SpanData struct {
	Name     string     `json:"name"`
	Worker   int        `json:"worker"`   // worker index, or -1 when unattributed
	StartNS  int64      `json:"start_ns"` // offset from the collector epoch
	DurNS    int64      `json:"dur_ns"`
	Running  bool       `json:"running,omitempty"` // true if not yet ended at snapshot time
	Children []SpanData `json:"children,omitempty"`
}

// Duration returns the span duration as a time.Duration.
func (d SpanData) Duration() time.Duration { return time.Duration(d.DurNS) }

// Spans snapshots the span forest. Spans still open are reported with
// their duration so far and Running set. Nil-safe: nil collector, nil
// slice.
func (c *Collector) Spans() []SpanData {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]SpanData, len(c.roots))
	for i, s := range c.roots {
		out[i] = s.snapshot(c.epoch, now)
	}
	return out
}

// snapshot copies the span subtree; the caller holds c.mu.
func (s *Span) snapshot(epoch, now time.Time) SpanData {
	d := SpanData{
		Name:    s.name,
		Worker:  s.worker,
		StartNS: s.start.Sub(epoch).Nanoseconds(),
		DurNS:   s.dur.Nanoseconds(),
	}
	if !s.ended {
		d.DurNS = now.Sub(s.start).Nanoseconds()
		d.Running = true
	}
	if len(s.children) > 0 {
		d.Children = make([]SpanData, len(s.children))
		for i, cs := range s.children {
			d.Children[i] = cs.snapshot(epoch, now)
		}
	}
	return d
}

// RenderSpans formats the span forest as an indented human-readable tree:
//
//	core/build                 12.4ms
//	  tree                      8.1ms
//	  degrees                   0.3ms
//	core/upward                 3.9ms
//
// Nil-safe: a nil collector renders an empty string.
func (c *Collector) RenderSpans() string {
	var b strings.Builder
	renderSpans(&b, c.Spans(), 0)
	return b.String()
}

func renderSpans(b *strings.Builder, spans []SpanData, depth int) {
	for _, s := range spans {
		name := s.Name
		if s.Worker >= 0 {
			name = fmt.Sprintf("%s %d", s.Name, s.Worker)
		}
		suffix := ""
		if s.Running {
			suffix = " (running)"
		}
		// Deep forests (depth >= 18) would drive the pad width negative,
		// which %-*s treats as an error; clamp so names stay readable at
		// any nesting depth.
		width := 36 - 2*depth
		if width < 1 {
			width = 1
		}
		fmt.Fprintf(b, "%s%-*s %12s%s\n", strings.Repeat("  ", depth),
			width, name, time.Duration(s.DurNS).Round(time.Microsecond), suffix)
		renderSpans(b, s.Children, depth+1)
	}
}
