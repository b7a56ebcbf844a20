package main

import (
	"sort"
	"time"
)

// span is one interval of the traced run, recorded by the benchmark around
// its calls into the checker's layers. Spans of one search share Search;
// spans outside any search have Search 0. Times are nanoseconds since the
// traced run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Search int    `json:"search"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory; they are written out
// when the run ends. A nil tracer records nothing, so the untraced run pays
// one nil check per span boundary.
type tracer struct {
	t0       time.Time
	spans    []span
	searches int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, search int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID:     len(t.spans) + 1,
		Parent: parent,
		Search: search,
		Name:   name,
		Start:  time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// newSearch allocates the id the spans of one search share.
func (t *tracer) newSearch() int {
	if t == nil {
		return 0
	}
	t.searches++
	return t.searches
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}
