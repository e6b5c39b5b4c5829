package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are offsets from the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Req    int    `json:"req"`    // request (input) id shared by one request's spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// tracer records nothing, which is how the same replay code runs
// untraced to measure the tracing overhead.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]float64{}} }

func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds v to a counter recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	Calls   int
	Median  time.Duration // median duration per call
	SelfMed time.Duration // median self time per call
	Self    time.Duration // total self time
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		covered, hi := int64(0), s.Start
		for _, c := range ch {
			lo, end := max(spans[c].Start, hi), min(spans[c].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// summary aggregates every closed span by name.
func (t *tracer) summary() map[string]spanStat {
	self := selfTimes(t.spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		selfs[s.Name] = append(selfs[s.Name], float64(self[i]))
	}
	out := map[string]spanStat{}
	for name, d := range durs {
		st := spanStat{Calls: len(d), Median: time.Duration(median(d)), SelfMed: time.Duration(median(selfs[name]))}
		for _, v := range selfs[name] {
			st.Self += time.Duration(v)
		}
		out[name] = st
	}
	return out
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
