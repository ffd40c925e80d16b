package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Parent 0 marks a root span. A
// folded span (Calls > 0) stands for many short calls made under one
// parent — every NextEvent of a rank stream, say — whose durations are
// summed into Busy instead of being kept one by one; Start and End are
// then the first call's start and the last call's end.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Calls  int64   `json:"calls,omitempty"`
	Busy   float64 `json:"busy_s,omitempty"`
}

// dur is the time the span accounts for.
func (s Span) dur() float64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// Tracer keeps spans in memory until the run ends. It is safe for use
// from several goroutines; parents are passed explicitly, so
// concurrent callers never guess each other's nesting.
type Tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []Span
}

// NewTracer starts a tracer whose spans carry the given run id.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, t0: time.Now()}
}

func (t *Tracer) now() float64 { return time.Since(t.t0).Seconds() }

// Start opens a span under parent and returns its id.
func (t *Tracer) Start(parent int, name string) int {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: at, End: -1})
	return len(t.spans)
}

// End closes the span id.
func (t *Tracer) End(id int) {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at
}

// Do runs fn inside a span named name under parent.
func (t *Tracer) Do(parent int, name string, fn func(id int) error) error {
	id := t.Start(parent, name)
	defer t.End(id)
	return fn(id)
}

// callClock accumulates the time spent in many short calls.
type callClock struct {
	calls       int64
	busy        time.Duration
	first, last time.Time
}

// add counts one call that ran from t0 to t1.
func (c *callClock) add(t0, t1 time.Time) {
	if c.calls == 0 {
		c.first = t0
	}
	c.calls++
	c.busy += t1.Sub(t0)
	c.last = t1
}

// Fold records the calls c timed as one folded span under parent. It
// returns the span's id so that further folds can nest in it.
func (t *Tracer) Fold(parent int, name string, c callClock) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: c.first.Sub(t.t0).Seconds(), End: c.last.Sub(t.t0).Seconds(),
		Calls: c.calls, Busy: c.busy.Seconds(),
	})
	return len(t.spans)
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes every span as one JSON object per line, creating
// the file's directory if needed. It fails if a span was never ended.
func (t *Tracer) WriteFile(path string) error {
	spans := t.Spans()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.End < 0 {
			f.Close()
			return fmt.Errorf("span %d (%s) was never ended", s.ID, s.Name)
		}
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

// selfTimes sums, per span name, each span's duration minus the time
// its children cover. Children of one parent may overlap (concurrent
// requests under one pass), so interval children count by the union of
// their intervals, clipped to the parent. Folded children are calls
// made one after another by the parent's own goroutine; their busy
// time is subtracted as is.
func selfTimes(spans []Span) map[string]float64 {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the part of parent's duration its children account for.
func covered(parent Span, kids []Span) float64 {
	var folded float64
	var iv [][2]float64
	for _, k := range kids {
		if k.Calls > 0 {
			folded += k.Busy
			continue
		}
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var union, curLo, curHi float64
	open := false
	for _, r := range iv {
		switch {
		case !open:
			curLo, curHi, open = r[0], r[1], true
		case r[0] <= curHi:
			curHi = max(curHi, r[1])
		default:
			union += curHi - curLo
			curLo, curHi = r[0], r[1]
		}
	}
	if open {
		union += curHi - curLo
	}
	return union + folded
}

// totals sums span durations per name.
func totals(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}
