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

// span is one timed call the benchmark made into a layer.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. Spans are
// recorded only around the benchmark's own calls into a layer's public
// functions, never inside the program.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allocates an identifier shared by the spans of one operation.
func (t *tracer) request() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// do runs fn as span name of request req under parent (0 for the root) and
// returns the new span's identifier, for children to name as their parent.
func (t *tracer) do(req, parent uint64, name string, fn func()) uint64 {
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{Req: req, ID: t.next, Parent: parent, Name: name, Start: start, End: end})
	return t.next
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// its child rung covers. The covered part is the length of the union of
// the children's intervals, so overlapping children count once. A ladder
// rung re-executes the parent's operation one layer down, after the parent
// returns; its interval then stands for the share of the parent's work
// that lies below the boundary. Self time never goes below zero.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self := s.dur() - unionLength(children[s.ID])
		if self < 0 {
			self = 0
		}
		out[s.ID] = self
	}
	return out
}

// unionLength is the total length covered by the spans' intervals.
func unionLength(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	curStart, curEnd := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.Start, s.End
			continue
		}
		if s.End > curEnd {
			curEnd = s.End
		}
	}
	return total + curEnd - curStart
}

// spanStats summarizes the recorded spans by name: durations and self
// times, for the per-layer metrics.
type spanStats struct {
	dur  map[string][]time.Duration
	self map[string][]time.Duration
}

func summarize(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{dur: map[string][]time.Duration{}, self: map[string][]time.Duration{}}
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.dur())
		st.self[s.Name] = append(st.self[s.Name], self[s.ID])
	}
	return st
}

// durMedian is the median duration of spans named name, in unit.
func (st spanStats) durMedian(name string, unit time.Duration) float64 {
	return medianDur(st.dur[name], unit)
}

// selfMedian is the median self time of spans named name, in unit.
func (st spanStats) selfMedian(name string, unit time.Duration) float64 {
	return medianDur(st.self[name], unit)
}
