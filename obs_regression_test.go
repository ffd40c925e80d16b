// Regression tests for the observability seam at the public API level:
// a nil observer must keep Analyze on the exact uninstrumented path
// (zero extra allocations), and a live observer must record the stage
// spans the profiling tooling relies on.
package pas2p_test

import (
	"bytes"
	"context"
	"testing"

	"pas2p"
	"pas2p/internal/logical"
	"pas2p/internal/phase"
)

// tracedRing instruments a small iterative ring application and
// returns its tracefile.
func tracedRing(t testing.TB, procs, iters int) *pas2p.Trace {
	t.Helper()
	app := pas2p.App{
		Name:  "obs-ring",
		Procs: procs,
		Body: func(c *pas2p.Comm) {
			n := c.Size()
			for i := 0; i < iters; i++ {
				c.Compute(1e6)
				c.Sendrecv((c.Rank()+1)%n, 0, []float64{float64(i)}, (c.Rank()+n-1)%n, 0)
				c.Allreduce([]float64{1}, pas2p.Sum)
			}
		},
	}
	d, err := pas2p.NewDeployment(pas2p.ClusterA(), procs, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: d, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// TestAnalyzeNilObserverZeroExtraAllocs pins the cost of the disabled
// observer seam to zero: Analyze with a nil Observer must allocate
// exactly what composing its streamed stages directly (no seam at
// all) does.
func TestAnalyzeNilObserverZeroExtraAllocs(t *testing.T) {
	tr := tracedRing(t, 4, 20)
	cfg := pas2p.DefaultPhaseConfig()

	// Baseline: the same stages with no observer seam in sight.
	base := testing.AllocsPerRun(5, func() {
		r, err := logical.StreamOrder(logical.SourceFromTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := phase.ExtractStreamTable(context.Background(), r, r.Meta(), 1,
			phase.StreamConfig{Config: cfg}); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(5, func() {
		if _, _, err := pas2p.Analyze(tr, cfg, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got > base {
		t.Errorf("Analyze with nil observer allocates %.0f allocs/run vs %.0f for the bare stages; the disabled seam must be free",
			got, base)
	}
}

// TestAnalyzeObserverRecordsSpans checks the enabled path: each
// pipeline stage leaves a named span in the registry.
func TestAnalyzeObserverRecordsSpans(t *testing.T) {
	tr := tracedRing(t, 4, 20)
	cfg := pas2p.DefaultPhaseConfig()
	o := pas2p.NewObserver()
	cfg.Observer = o
	if _, _, err := pas2p.Analyze(tr, cfg, 1); err != nil {
		t.Fatal(err)
	}
	snap := o.Registry.Snapshot()
	seen := map[string]bool{}
	for _, sp := range snap.Spans {
		seen[sp.Name] = true
	}
	for _, want := range []string{"phase.extract.stream"} {
		if !seen[want] {
			t.Errorf("span %q not recorded; got %v", want, seen)
		}
	}
}

// TestAnalyzeStreamValidates: a streamed analysis carries no
// materialised Logical, and Validate checks its tiling against the
// recorded tick count.
func TestAnalyzeStreamValidates(t *testing.T) {
	tr := tracedRing(t, 4, 20)
	var buf bytes.Buffer
	if err := pas2p.EncodeTrace(&buf, tr, pas2p.TraceCodecOptions{}); err != nil {
		t.Fatal(err)
	}
	br, err := pas2p.NewTraceBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pas2p.AnalyzeStream(context.Background(), br, pas2p.DefaultPhaseConfig(), 1, pas2p.AnalyzeStreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	an := res.Analysis
	if an.Logical != nil || an.Ticks != res.Stats.Ticks {
		t.Fatalf("streamed analysis: Logical %p, Ticks %d, want nil and %d", an.Logical, an.Ticks, res.Stats.Ticks)
	}
	if err := an.Validate(); err != nil {
		t.Fatalf("streamed analysis invalid: %v", err)
	}
	an.Phases[0].Occurrences[0].EndTick++
	if err := an.Validate(); err == nil {
		t.Fatal("Validate accepted a tiling with an overlapping occurrence")
	}
}
