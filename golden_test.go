package pas2p_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pas2p"
	"pas2p/internal/golden"
	"pas2p/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenDir holds the frozen corpus (see internal/golden).
var goldenDir = filepath.Join("testdata", "golden")

// checkGolden compares a fresh record with the frozen one, printing
// app / phase / field with the old and new values on drift; with
// -update it rewrites the frozen record instead.
func checkGolden(t *testing.T, got *golden.Record) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := golden.Save(goldenDir, got); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := golden.Load(goldenDir, got.Name)
	if err != nil {
		t.Fatalf("loading frozen record: %v (generate it with go test -run Golden -update)", err)
	}
	if d := golden.Diff(want, got); len(d) > 0 {
		if len(d) > 40 {
			d = append(d[:40], "...")
		}
		t.Errorf("%s drifts from the frozen corpus (old -> new):\n%s", got.Name, strings.Join(d, "\n"))
	}
}

// TestGoldenCorpus pins stage A's absolute output: every app's phase
// table and prediction on the Table 5 and Table 7 machine pairs, the
// fault-injected cases, and the table of a seeded synthetic trace, must
// match the committed records bit for bit.
func TestGoldenCorpus(t *testing.T) {
	for _, c := range append(golden.Cases(), golden.FaultCases()...) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			app, err := c.MakeApp()
			if err != nil {
				t.Fatal(err)
			}
			base, err := golden.Deployment(c.Base)
			if err != nil {
				t.Fatal(err)
			}
			target, err := golden.Deployment(c.Target)
			if err != nil {
				t.Fatal(err)
			}
			inj, err := c.Injector()
			if err != nil {
				t.Fatal(err)
			}
			out, err := pas2p.Predict(pas2p.Experiment{App: app, Base: base, Target: target,
				EventOverhead: golden.EventOverhead, WarmOccurrence: golden.Warm, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			rec := golden.FromTable(c.Name(), out.Table)
			rec.PET, rec.AETTarget, rec.SET = int64(out.PET), int64(out.AETTarget), int64(out.SET)
			checkGolden(t, rec)
		})
	}
	t.Run(golden.SynthName, func(t *testing.T) {
		t.Parallel()
		var buf bytes.Buffer
		if _, err := workload.Synthesize(&buf, golden.SynthSpec); err != nil {
			t.Fatal(err)
		}
		tr, err := pas2p.DecodeTrace(&buf, pas2p.TraceCodecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, tb, err := pas2p.Analyze(tr, pas2p.DefaultPhaseConfig(), golden.Warm)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, golden.FromTable(golden.SynthName, tb))
	})
}
