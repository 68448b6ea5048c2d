package main

import "time"

// span is one timed call the benchmark made into a layer. Spans of one
// pipeline repetition or one request share Trace; Parent is the ID of
// the span that caused this one (0 for a root). Times are milliseconds
// since the tracer was created.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory; the run report writes them out when
// the benchmark ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(trace, name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartMs: ms(start.Sub(t.t0)), EndMs: ms(end.Sub(t.t0))})
	return id
}
