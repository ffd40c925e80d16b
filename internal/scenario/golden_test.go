package scenario

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"pas2p/internal/golden"
)

// TestGoldenDeterminism anchors the determinism assertion to the frozen
// corpus: a fault-free case must pass its rerun check, and the run
// itself must reproduce the committed phase table and prediction bit
// for bit, so a drift shared by both runs cannot pass unnoticed.
func TestGoldenDeterminism(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "golden")
	for _, c := range []golden.Case{
		{App: "masterworker", Workload: golden.Workloads["masterworker"], Base: "A", Target: "B"},
		{App: "cg", Workload: golden.Workloads["cg"], Base: "C", Target: "A"},
	} {
		t.Run(c.Name(), func(t *testing.T) {
			want, err := golden.Load(dir, c.Name())
			if err != nil {
				t.Fatal(err)
			}
			s := mustParse(t, fmt.Sprintf(`name: %s
app:
  name: %s
  ranks: %d
  workload: %q
base: %s
target: %s
assert:
  pete_bound: 100
  determinism: true
`, strings.ToLower(c.Name()), c.App, golden.Procs, c.Workload, c.Base, c.Target))
			cs := s.Cases()[0]
			if res := evalCase(cs, nil); res.Status != StatusPass {
				t.Fatalf("case failed: %+v", res.Failures())
			}
			run, err := cs.execute(nil, true, false)
			if err != nil {
				t.Fatal(err)
			}
			got := golden.FromTable(c.Name(), run.out.Table)
			got.PET, got.AETTarget, got.SET = int64(run.out.PET), int64(run.out.AETTarget), int64(run.out.SET)
			if d := golden.Diff(want, got); len(d) > 0 {
				t.Fatalf("drifts from the frozen corpus (old -> new):\n%s", strings.Join(d, "\n"))
			}
		})
	}
}
