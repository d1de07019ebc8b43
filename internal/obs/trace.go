package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TraceID identifies one causal trace (one logical operation end to end).
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Annotation is one key/value note attached to a span.
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed interval of a trace. Spans form a tree via Parent.
// All methods are nil-safe: a nil *Span (the disabled path, or code running
// without an ambient span) ignores every call.
type Span struct {
	tr *Tracer

	Trace  TraceID
	ID     SpanID
	Parent SpanID // 0 for a root span
	Name   string
	Start  time.Duration // runtime time (sim.Runtime.Now), not wall clock
	Finish time.Duration
	Failed bool
	Err    string
	Notes  []Annotation

	// prev is the span that was task-current before this one was installed;
	// End restores it. Only set for installed spans.
	prev      *Span
	installed bool
	done      bool
}

// SpanContext is the portable identity of a span — what an RPC layer carries
// across a task/process boundary to parent remote work under the caller.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Context returns the span's portable identity (zero value when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// Annotate attaches a key/value note.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.Notes = append(s.Notes, Annotation{Key: key, Value: value})
}

// Annotatef attaches a formatted note.
func (s *Span) Annotatef(key, format string, args ...any) {
	if s == nil {
		return
	}
	s.Notes = append(s.Notes, Annotation{Key: key, Value: fmt.Sprintf(format, args...)})
}

// End closes the span at the current runtime time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tr.rt.Now())
}

// EndErr closes the span, marking it failed when err is non-nil.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Failed = true
		s.Err = err.Error()
	}
	s.EndAt(s.tr.rt.Now())
}

// Fail marks the span failed without closing it.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	s.Failed = true
	if err != nil {
		s.Err = err.Error()
	}
}

// EndAt closes the span at an explicit runtime time (for spans reconstructed
// after the fact, e.g. a message whose delivery time is known on arrival).
func (s *Span) EndAt(t time.Duration) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.Finish = t
	if s.installed {
		s.tr.rt.SetTaskLocal(taskLocalFor(s.prev))
	}
	s.tr.emit(s)
}

// taskLocalFor boxes a span for SetTaskLocal, mapping a nil *Span to a nil
// interface so the runtime clears the slot instead of storing a typed nil.
func taskLocalFor(s *Span) any {
	if s == nil {
		return nil
	}
	return s
}

// Tracer creates spans, tracks the task-current span via sim task-locals,
// and retains completed spans in a ring buffer for trace assembly. A nil
// *Tracer disables everything at zero cost.
type Tracer struct {
	rt sim.Runtime

	mu     sync.Mutex
	nextID uint64
	ring   []*Span // completed spans, ring[head] is the oldest
	head   int
	size   int
	byName map[string]*stats.Summary // span name → duration summary (µs)
	order  []string
}

func newTracer(rt sim.Runtime, ringCap int) *Tracer {
	return &Tracer{
		rt:     rt,
		ring:   make([]*Span, ringCap),
		byName: make(map[string]*stats.Summary),
	}
}

func (t *Tracer) newID() uint64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// Current returns the calling task's current span (nil when none, or when
// the tracer is disabled).
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	if s, ok := t.rt.TaskLocal().(*Span); ok {
		return s
	}
	return nil
}

// StartRoot opens a new trace with name as its root span and installs it as
// the task-current span.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.newID()
	s := &Span{
		tr:        t,
		Trace:     TraceID(id),
		ID:        SpanID(id),
		Name:      name,
		Start:     t.rt.Now(),
		prev:      t.Current(),
		installed: true,
	}
	t.rt.SetTaskLocal(s)
	return s
}

// Start opens a child of the task-current span (or a new root when there is
// none) and installs it as task-current. End restores the previous span.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	cur := t.Current()
	if cur == nil {
		return t.StartRoot(name)
	}
	s := &Span{
		tr:        t,
		Trace:     cur.Trace,
		ID:        SpanID(t.newID()),
		Parent:    cur.ID,
		Name:      name,
		Start:     t.rt.Now(),
		prev:      cur,
		installed: true,
	}
	t.rt.SetTaskLocal(s)
	return s
}

// Child opens a child of the task-current span and installs it, or returns
// nil (recording nothing) when the task is not inside a traced operation —
// for mid-stack instrumentation (network fan-out, storage internals) that
// should never root a trace of its own.
func (t *Tracer) Child(name string) *Span {
	if t == nil || t.Current() == nil {
		return nil
	}
	return t.Start(name)
}

// StartAt opens a child of an explicit parent context at an explicit start
// time and installs it as task-current — the handler-side serve span: the
// remote task adopts the caller's context carried over the wire.
func (t *Tracer) StartAt(parent SpanContext, name string, start time.Duration) *Span {
	if t == nil || parent.Trace == 0 {
		return nil
	}
	s := &Span{
		tr:        t,
		Trace:     parent.Trace,
		ID:        SpanID(t.newID()),
		Parent:    parent.Span,
		Name:      name,
		Start:     start,
		prev:      t.Current(),
		installed: true,
	}
	t.rt.SetTaskLocal(s)
	return s
}

// Detached opens a child of an explicit parent context WITHOUT installing it
// as task-current — for work measured by a task that is itself blocked, such
// as the caller's view of an RPC in flight.
func (t *Tracer) Detached(parent SpanContext, name string, start time.Duration) *Span {
	if t == nil || parent.Trace == 0 {
		return nil
	}
	return &Span{
		tr:     t,
		Trace:  parent.Trace,
		ID:     SpanID(t.newID()),
		Parent: parent.Span,
		Name:   name,
		Start:  start,
	}
}

// SpanAt records an already-completed interval as a child of parent — how
// the network emits NIC-wait / transit / CPU-queue components whose bounds
// are computed rather than observed live. The span keeps a copy of notes,
// so a caller's annotation literals stay on its stack when tracing is off.
func (t *Tracer) SpanAt(parent SpanContext, name string, start, end time.Duration, notes ...Annotation) {
	if t == nil || parent.Trace == 0 {
		return
	}
	var kept []Annotation
	if len(notes) > 0 {
		kept = append(kept, notes...)
	}
	s := &Span{
		tr:     t,
		Trace:  parent.Trace,
		ID:     SpanID(t.newID()),
		Parent: parent.Span,
		Name:   name,
		Start:  start,
		Finish: end,
		Notes:  kept,
		done:   true,
	}
	t.emit(s)
}

// emit retires a completed span into the ring and the per-name aggregates.
func (t *Tracer) emit(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) > 0 {
		if t.size < len(t.ring) {
			t.ring[(t.head+t.size)%len(t.ring)] = s
			t.size++
		} else {
			t.ring[t.head] = s
			t.head = (t.head + 1) % len(t.ring)
		}
	}
	sum, ok := t.byName[s.Name]
	if !ok {
		sum = &stats.Summary{}
		t.byName[s.Name] = sum
		t.order = append(t.order, s.Name)
	}
	sum.Add(float64(s.Finish-s.Start) / float64(time.Microsecond))
}

// NameStat is one row of the per-span-name aggregate view.
type NameStat struct {
	Name  string
	Count int64
	Mean  time.Duration
	Max   time.Duration
}

// StatsByName returns mean durations aggregated over every completed span,
// independent of ring eviction (first-seen order). This is what the Fig 5b
// breakdown is derived from.
func (t *Tracer) StatsByName() []NameStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NameStat, 0, len(t.order))
	for _, name := range t.order {
		s := t.byName[name]
		out = append(out, NameStat{
			Name:  name,
			Count: s.N(),
			Mean:  time.Duration(s.Mean() * float64(time.Microsecond)),
			Max:   time.Duration(s.Max() * float64(time.Microsecond)),
		})
	}
	return out
}

// snapshot returns the retained spans, oldest first.
func (t *Tracer) snapshot() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, t.size)
	for i := 0; i < t.size; i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// TraceIDs lists the distinct traces with retained spans, most recent last,
// capped at limit (0 = all).
func (t *Tracer) TraceIDs(limit int) []TraceID {
	if t == nil {
		return nil
	}
	seen := make(map[TraceID]bool)
	var ids []TraceID
	for _, s := range t.snapshot() {
		if !seen[s.Trace] {
			seen[s.Trace] = true
			ids = append(ids, s.Trace)
		}
	}
	if limit > 0 && len(ids) > limit {
		ids = ids[len(ids)-limit:]
	}
	return ids
}

// SpanNode is a span with its children resolved — one node of the trace tree.
type SpanNode struct {
	Span     *Span
	Children []*SpanNode
}

// Trace assembles the span tree for one trace from the retained spans.
// Roots are spans whose parent is absent from the buffer (evicted parents
// degrade gracefully into extra roots rather than losing subtrees).
func (t *Tracer) Trace(id TraceID) []*SpanNode {
	if t == nil {
		return nil
	}
	var spans []*Span
	for _, s := range t.snapshot() {
		if s.Trace == id {
			spans = append(spans, s)
		}
	}
	return buildTree(spans)
}

func buildTree(spans []*Span) []*SpanNode {
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanNode{Span: s}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range nodes {
		sortNodes(n.Children)
	}
	return roots
}

func sortNodes(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Span.Start != ns[j].Span.Start {
			return ns[i].Span.Start < ns[j].Span.Start
		}
		return ns[i].Span.ID < ns[j].Span.ID
	})
}

// WriteTree renders a trace's span tree indented, one span per line:
//
//	music.acquireLock                 12.3ms  [@ 1.002s]
//	  rpc:lock.peek                    4.1ms
//	    net.transit                    2.0ms
//
// Durations use the experiment tables' formatting.
func (t *Tracer) WriteTree(w io.Writer, id TraceID) {
	if t == nil {
		return
	}
	roots := t.Trace(id)
	if len(roots) == 0 {
		fmt.Fprintf(w, "trace %d: no spans retained\n", id)
		return
	}
	base := roots[0].Span.Start
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		s := n.Span
		name := strings.Repeat("  ", depth) + s.Name
		status := ""
		if s.Failed {
			status = "  FAILED"
			if s.Err != "" {
				status += " (" + s.Err + ")"
			}
		}
		var notes string
		if len(s.Notes) > 0 {
			parts := make([]string, len(s.Notes))
			for i, a := range s.Notes {
				parts[i] = a.Key + "=" + a.Value
			}
			notes = "  {" + strings.Join(parts, " ") + "}"
		}
		fmt.Fprintf(w, "%-52s %10s  [+%s]%s%s\n",
			name, stats.FormatDuration(s.Finish-s.Start),
			stats.FormatDuration(s.Start-base), status, notes)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// SpanJSON is the wire form of one span for the /traces endpoint.
type SpanJSON struct {
	Trace    uint64       `json:"trace"`
	ID       uint64       `json:"id"`
	Parent   uint64       `json:"parent,omitempty"`
	Name     string       `json:"name"`
	StartUS  int64        `json:"start_us"`
	EndUS    int64        `json:"end_us"`
	Failed   bool         `json:"failed,omitempty"`
	Err      string       `json:"err,omitempty"`
	Notes    []Annotation `json:"notes,omitempty"`
	Children []SpanJSON   `json:"children,omitempty"`
}

// TraceJSON renders one trace's tree in wire form.
func (t *Tracer) TraceJSON(id TraceID) []SpanJSON {
	if t == nil {
		return nil
	}
	return nodesJSON(t.Trace(id))
}

func nodesJSON(ns []*SpanNode) []SpanJSON {
	if len(ns) == 0 {
		return nil
	}
	out := make([]SpanJSON, 0, len(ns))
	for _, n := range ns {
		s := n.Span
		out = append(out, SpanJSON{
			Trace:    uint64(s.Trace),
			ID:       uint64(s.ID),
			Parent:   uint64(s.Parent),
			Name:     s.Name,
			StartUS:  int64(s.Start / time.Microsecond),
			EndUS:    int64(s.Finish / time.Microsecond),
			Failed:   s.Failed,
			Err:      s.Err,
			Notes:    s.Notes,
			Children: nodesJSON(n.Children),
		})
	}
	return out
}
