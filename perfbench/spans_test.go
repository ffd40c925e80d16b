package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "predict.lu", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "sim.base", Start: 0, End: 3},
		{ID: 3, Parent: 1, Name: "phase.extract", Start: 4, End: 9},
		{ID: 4, Parent: 3, Name: "phase.table", Start: 5, End: 6},
		{ID: 5, Name: "predict.cg", Start: 10, End: 12},
		{ID: 6, Parent: 5, Name: "sim.base", Start: 10, End: 11},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"predict.lu":    10 - 3 - 5, // children cover [0,3] and [4,9]
		"sim.base":      3 + 1,      // summed over both apps
		"phase.extract": 5 - 1,      // its own child covers [5,6]
		"phase.table":   1,
		"predict.cg":    1,
	}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestSelfTimeOverlappingAndClippedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "serve.pass", Start: 0, End: 10},
		// Two concurrent requests overlapping on [2,4]: union [1,6].
		{ID: 2, Parent: 1, Name: "serve.lookup", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "serve.sign", Start: 2, End: 6},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "serve.predict", Start: 9, End: 12},
	}
	if got := selfTimes(spans)["serve.pass"]; !near(got, 10-5-1) {
		t.Errorf("self time of serve.pass = %v, want 4", got)
	}
}

func TestSelfTimeFoldedCalls(t *testing.T) {
	t0 := time.Now()
	tr := NewTracer("test")
	tr.t0 = t0
	ext := tr.Start(0, "phase.stream_extract")
	order := tr.Fold(ext, "logical.stream_order", callClock{calls: 100, busy: 600 * time.Millisecond, first: t0, last: t0})
	tr.Fold(order, "trace.rank_read", callClock{calls: 1000, busy: 250 * time.Millisecond, first: t0, last: t0})
	tr.spans[ext-1].Start, tr.spans[ext-1].End = 0, 1 // the extraction lasted one second
	got := selfTimes(tr.Spans())
	for name, w := range map[string]float64{
		"phase.stream_extract": 0.4,
		"logical.stream_order": 0.35,
		"trace.rank_read":      0.25,
	} {
		if !near(got[name], w) {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerWritesEverySpan(t *testing.T) {
	tr := NewTracer("run-7")
	err := tr.Do(0, "outer", func(id int) error {
		return tr.Do(id, "inner", func(int) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].Run != "run-7" || got[1].End < got[1].Start {
		t.Fatalf("spans written = %+v", got)
	}
	tr.Start(0, "open")
	if err := tr.WriteFile(path); err == nil {
		t.Error("writing a span that was never ended should fail")
	}
}
