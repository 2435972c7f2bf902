package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer, recorded from outside the
// program around the call.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Session string `json:"session,omitempty"`
	T       int    `json:"t"` // timestamp within the session, -1 when none
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced phases pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (tr *tracer) begin(name string, parent int, session string, t int) int {
	if tr == nil {
		return -1
	}
	now := int64(time.Since(tr.epoch))
	tr.mu.Lock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent, Session: session, T: t, Start: now, End: now})
	tr.mu.Unlock()
	return id
}

func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := int64(time.Since(tr.epoch))
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once, and a child is clipped to its parent). Spans are
// indexed by ID.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, p := range spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count      int
	total      int64 // ns
	self       int64 // ns
	childTotal int64 // ns covered by children
}

func (s spanStat) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

// summarize groups spans by name.
func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for _, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += s.dur()
		st.self += self[s.ID]
		st.childTotal += s.dur() - self[s.ID]
		out[s.Name] = st
	}
	return out
}
