package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Name is "<layer>.<call>"; Req groups the spans of one
// request (0 when the span belongs to no request).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	tracer *tracer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []*span
	reqs  atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for a root span).
func (t *tracer) start(name string, parent *span, req int64) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Req: req, tracer: t}
	if parent != nil {
		s.Parent = parent.ID
		if req == 0 {
			s.Req = parent.Req
		}
	}
	t.mu.Lock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.t0))
	return s
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent *span, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := t.start(name, parent, req)
	t.mu.Lock()
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// newRequest returns a fresh request ID (0 when not tracing).
func (t *tracer) newRequest() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	e := int64(time.Since(s.tracer.t0))
	s.tracer.mu.Lock()
	s.End = e
	s.tracer.mu.Unlock()
}

// layerOf is the layer prefix of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in seconds: the sum over its
// spans of the span's duration minus the part of that interval its child
// spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p *span, kids []*span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// count is the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as JSON, with the host that recorded them.
func (t *tracer) write(path string, hst host) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Host  host    `json:"host"`
		Spans []*span `json:"spans"`
	}{hst, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
