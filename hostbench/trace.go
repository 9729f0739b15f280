package main

import (
	"context"
	"runtime/pprof"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one iteration (one fleet run, one suite pass, one
// kernel) share Run; Parent is 0 for a top-level call.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Err     string `json:"err,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op apart from calling fn.
// The benchmark drives the program from one goroutine, so spans need
// no locking, and the innermost open span is the parent of a new one.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int // ids of the spans being recorded, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRun starts a new iteration; spans recorded after it carry its id.
func (tr *tracer) nextRun() {
	if tr != nil {
		tr.run++
	}
}

// do records fn as a span named name, nested in the span open around
// it, and returns fn's error.
func (tr *tracer) do(name string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	id := len(tr.spans) + 1
	parent := 0
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Run: tr.run, Name: name,
		StartNS: time.Since(tr.t0).Nanoseconds()})
	tr.open = append(tr.open, id)
	err := fn()
	tr.open = tr.open[:len(tr.open)-1]
	s := &tr.spans[id-1]
	s.EndNS = time.Since(tr.t0).Nanoseconds()
	if err != nil {
		s.Err = err.Error()
	}
	return err
}

// inPhase runs fn with the pprof label phase=name, so CPU samples taken
// inside it (and inside goroutines it starts) can be told apart from
// the rest of the run. Untraced runs skip the labelling.
func (tr *tracer) inPhase(name string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { err = fn() })
	return err
}

// spanStat summarises all spans of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize folds spans into per-name totals, largest total first.
// Children never overlap each other (the benchmark is sequential), so
// the covered part is the sum of the children's durations.
func summarize(spans []span) []spanStat {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	by := make(map[string]*spanStat)
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalMS != out[j].TotalMS {
			return out[i].TotalMS > out[j].TotalMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
