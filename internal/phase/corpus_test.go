package phase_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/golden"
	"pas2p/internal/logical"
	"pas2p/internal/phase"
)

// corpusDir is the frozen corpus at the repository root.
var corpusDir = filepath.Join("..", "..", "testdata", "golden")

// assertMatchesCorpus fails unless tb reproduces the frozen record's
// phase table field for field (the prediction fields are not phase
// output and are carried over).
func assertMatchesCorpus(t *testing.T, label string, want *golden.Record, tb *phase.Table) {
	t.Helper()
	got := golden.FromTable(want.Name, tb)
	got.PET, got.AETTarget, got.SET = want.PET, want.AETTarget, want.SET
	if d := golden.Diff(want, got); len(d) > 0 {
		if len(d) > 20 {
			d = append(d[:20], "...")
		}
		t.Fatalf("%s drifts from the frozen corpus (old -> new):\n%s", label, strings.Join(d, "\n"))
	}
}

// TestStreamExtractGoldenApps checks every registered app's traced run,
// on both corpus base machines, against the frozen tables: the
// reference path (in-core order, seed matcher, BuildTable) and the
// engine's entrypoint AnalyzeSource, unbudgeted and under a 1-byte budget that forces
// every matrix through the spill store.
func TestStreamExtractGoldenApps(t *testing.T) {
	byApp := map[string][]golden.Case{}
	for _, c := range golden.Cases() {
		byApp[c.App] = append(byApp[c.App], c)
	}
	for _, name := range apps.Names() {
		cases := byApp[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range cases {
				want, err := golden.Load(corpusDir, c.Name())
				if err != nil {
					t.Fatal(err)
				}
				tr, err := c.TracedRun()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := phase.ReferenceTable(tr, golden.Warm)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesCorpus(t, c.Name()+"/reference", want, ref)
				for mode, budget := range map[string]int64{"in-core": 0, "forced-spill": 1} {
					cfg := phase.StreamConfig{Config: phase.DefaultConfig(), MemBudgetBytes: budget}
					if budget > 0 {
						cfg.SpillDir = t.TempDir()
					}
					res, err := phase.AnalyzeSource(context.Background(), logical.SourceFromTrace(tr), golden.Warm, cfg)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesCorpus(t, c.Name()+"/"+mode, want, res.Table)
					res.Close()
				}
			}
		})
	}
}
