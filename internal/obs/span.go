package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// ctxKey namespaces the package's context values.
type ctxKey int

const (
	traceCtxKey ctxKey = iota
	spanCtxKey
)

// Trace collects the spans of one request. It is safe for concurrent use:
// the coordinator fans sub-requests out across goroutines and each opens
// spans against the same trace.
type Trace struct {
	start time.Time

	mu    sync.Mutex
	next  int64
	spans []*Span
}

// NewTrace installs a fresh trace in the context and returns both. Every
// StartSpan under the returned context records into this trace.
func NewTrace(ctx context.Context) (context.Context, *Trace) {
	t := &Trace{start: time.Now()}
	return context.WithValue(ctx, traceCtxKey, t), t
}

// TraceFromContext returns the context's trace, or nil when untraced.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey).(*Trace)
	return t
}

// Span is one timed stage of a traced request. A nil *Span is a valid
// no-op receiver for every method, so instrumentation sites never need to
// check whether tracing is on.
type Span struct {
	tr     *Trace
	id     int64
	parent int64 // 0 = no parent
	name   string
	start  time.Time

	mu    sync.Mutex
	end   time.Time
	attrs map[string]string
}

// StartSpan opens a span named name under the context's current span (or as
// a root when none) and returns a derived context carrying it. When the
// context holds no trace it returns the context unchanged and a nil span —
// the untraced fast path costs one context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TraceFromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent int64
	if p, _ := ctx.Value(spanCtxKey).(*Span); p != nil {
		parent = p.id
	}
	t.mu.Lock()
	t.next++
	s := &Span{tr: t, id: t.next, parent: parent, name: name, start: time.Now()}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey, s), s
}

// SetAttr attaches a key=value annotation (node id, key counts, outcomes).
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
	s.mu.Unlock()
}

// SetInt attaches an integer annotation. The number is formatted only on a
// live span, so an untraced request pays nothing for it.
func (s *Span) SetInt(k string, v int) {
	if s != nil {
		s.SetAttr(k, strconv.Itoa(v))
	}
}

// End closes the span (idempotent) and returns its duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	return s.end.Sub(s.start)
}

// SpanData is an immutable copy of one span.
type SpanData struct {
	ID     int64
	Parent int64
	Name   string
	Start  time.Time
	Dur    time.Duration
	Attrs  map[string]string
}

// Snapshot copies every span, ordered by start time (ties by id, which is
// creation order). Unfinished spans are measured up to now.
func (t *Trace) Snapshot() []SpanData {
	now := time.Now()
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanData, 0, len(spans))
	for _, s := range spans {
		s.mu.Lock()
		end := s.end
		if end.IsZero() {
			end = now
		}
		attrs := make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
		s.mu.Unlock()
		if len(attrs) == 0 {
			attrs = nil
		}
		out = append(out, SpanData{
			ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start, Dur: end.Sub(s.start), Attrs: attrs,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SpanNode is one vertex of the nested span tree (the ?trace=1 response
// shape). Offsets and durations are microseconds from trace start.
type SpanNode struct {
	Name     string            `json:"name"`
	StartUS  int64             `json:"startUs"`
	DurUS    int64             `json:"durUs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// Tree assembles the span forest: roots are spans with no (or an unknown)
// parent; children are ordered by start time.
func (t *Trace) Tree() []*SpanNode {
	data := t.Snapshot()
	nodes := make(map[int64]*SpanNode, len(data))
	for _, d := range data {
		nodes[d.ID] = &SpanNode{
			Name:    d.Name,
			StartUS: d.Start.Sub(t.start).Microseconds(),
			DurUS:   d.Dur.Microseconds(),
			Attrs:   d.Attrs,
		}
	}
	var roots []*SpanNode
	for _, d := range data { // data is start-ordered, so children append in order
		if p, ok := nodes[d.Parent]; ok && d.Parent != d.ID {
			p.Children = append(p.Children, nodes[d.ID])
			continue
		}
		roots = append(roots, nodes[d.ID])
	}
	return roots
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`  // microseconds from trace start
	Dur  int64             `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the JSON Object Format Perfetto and chrome://tracing load.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the trace as Chrome trace-event JSON (complete "X"
// events), loadable in Perfetto or chrome://tracing. Each root's direct
// subtree is placed on its own track (tid) so concurrent fan-out shares
// render side by side while the sequential spans inside one share nest.
func (t *Trace) WriteChrome(w io.Writer) error {
	data := t.Snapshot()
	parentOf := make(map[int64]int64, len(data))
	for _, d := range data {
		parentOf[d.ID] = d.Parent
	}
	// lane: the ancestor that is a direct child of a root (or the span
	// itself when it is a root or a root's child).
	lane := func(id int64) int64 {
		for {
			p := parentOf[id]
			if p == 0 {
				return id // root: own track
			}
			if parentOf[p] == 0 {
				return id // direct child of a root anchors the track
			}
			id = p
		}
	}
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(data))}
	for _, d := range data {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: d.Name,
			Cat:  "stash",
			Ph:   "X",
			TS:   d.Start.Sub(t.start).Microseconds(),
			Dur:  d.Dur.Microseconds(),
			PID:  1,
			TID:  lane(d.ID),
			Args: d.Attrs,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
