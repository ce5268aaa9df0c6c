package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultMaxSpans bounds the number of spans a Collector retains so a
// multi-million-task run cannot exhaust memory through its trace; counters
// and histograms keep aggregating after the cap, and the number of dropped
// spans is reported in the snapshot.
const DefaultMaxSpans = 1 << 20

// Collector is the aggregating Recorder: counters, histograms, spans and
// metadata accumulate in memory and export through the Chrome-trace and
// JSON writers. All methods are safe for concurrent use and for a nil
// receiver (a nil *Collector behaves like Nop).
type Collector struct {
	mu       sync.Mutex
	start    time.Time
	counters map[string]int64
	hists    map[string]*hist
	meta     []metaKV
	metaIdx  map[string]int
	spans    []spanRec
	open     map[SpanID]spanRec
	nextSpan SpanID
	maxSpans int
	dropped  int64
}

type metaKV struct{ k, v string }

// spanRec is one recorded span. Wall spans carry microseconds since the
// collector's start; simulated spans carry cycles.
type spanRec struct {
	cat, name  string
	track      int
	wall       bool
	start, dur float64
}

// hist aggregates samples without retaining them: count/sum/min/max plus
// power-of-two buckets for the distribution shape.
type hist struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [64]int64 // buckets[i] counts samples with value < 2^i
}

func (h *hist) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := 0
	if v >= 1 {
		b = int(math.Ilogb(v)) + 1
		if b > 63 {
			b = 63
		}
	}
	h.buckets[b]++
}

// NewCollector returns an empty collector whose wall clock starts now.
func NewCollector() *Collector {
	return &Collector{
		start:    time.Now(),
		counters: map[string]int64{},
		hists:    map[string]*hist{},
		metaIdx:  map[string]int{},
		open:     map[SpanID]spanRec{},
		maxSpans: DefaultMaxSpans,
	}
}

// SetMaxSpans overrides the span retention cap (n <= 0 keeps every span).
func (c *Collector) SetMaxSpans(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxSpans = n
}

// Count implements Recorder.
func (c *Collector) Count(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Observe implements Recorder.
func (c *Collector) Observe(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = &hist{}
		c.hists[name] = h
	}
	h.observe(v)
	c.mu.Unlock()
}

// Span implements Recorder.
func (c *Collector) Span(cat, name string, track int, start, dur float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.push(spanRec{cat: cat, name: name, track: track, start: start, dur: dur})
	c.mu.Unlock()
}

// push appends a span under c.mu, honoring the retention cap.
func (c *Collector) push(s spanRec) {
	if c.maxSpans > 0 && len(c.spans) >= c.maxSpans {
		c.dropped++
		return
	}
	c.spans = append(c.spans, s)
}

// Begin implements Recorder: it opens a wall-clock span.
func (c *Collector) Begin(cat, name string) SpanID {
	if c == nil {
		return -1
	}
	now := time.Since(c.start)
	c.mu.Lock()
	id := c.nextSpan
	c.nextSpan++
	c.open[id] = spanRec{cat: cat, name: name, wall: true, start: float64(now.Microseconds())}
	c.mu.Unlock()
	return id
}

// End implements Recorder: it closes a wall-clock span opened by Begin.
// Unknown IDs (including the no-op recorder's negative IDs) are ignored.
func (c *Collector) End(id SpanID) {
	if c == nil {
		return
	}
	now := time.Since(c.start)
	c.mu.Lock()
	s, ok := c.open[id]
	if ok {
		delete(c.open, id)
		s.dur = float64(now.Microseconds()) - s.start
		if s.dur < 0 {
			s.dur = 0
		}
		c.push(s)
	}
	c.mu.Unlock()
}

// SetMeta implements Recorder. Keys are unique; a repeated key overwrites
// its previous value while keeping the original insertion order.
func (c *Collector) SetMeta(key, value string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if i, ok := c.metaIdx[key]; ok {
		c.meta[i].v = value
	} else {
		c.metaIdx[key] = len(c.meta)
		c.meta = append(c.meta, metaKV{key, value})
	}
	c.mu.Unlock()
}

// openOrdered returns the still-open wall spans in Begin order (SpanIDs
// are issued monotonically). Must be called with c.mu held.
func (c *Collector) openOrdered() []spanRec {
	if len(c.open) == 0 {
		return nil
	}
	ids := make([]int64, 0, len(c.open))
	for id := range c.open {
		ids = append(ids, int64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]spanRec, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.open[SpanID(id)])
	}
	return out
}

// Counter returns the current value of a named counter.
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// SpanCount returns the number of retained spans.
func (c *Collector) SpanCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Categories returns the sorted set of span categories recorded so far.
func (c *Collector) Categories() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := map[string]bool{}
	for _, s := range c.spans {
		set[s.cat] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
