package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pas2p"
)

// selfCheckPct is stage A's own prediction error: Eq. 1 over the
// table's relevant rows against the base AET the trace recorded, in
// percent. It is what the relevance filter costs in accuracy, and it is
// deterministic.
func selfCheckPct(tb *pas2p.PhaseTable) float64 {
	aet := float64(tb.BaseAET)
	return 100 * math.Abs(float64(tb.PredictedAET(true))-aet) / aet
}

// runAnalyze is the analyze workload: the `pas2p analyze` path —
// os.ReadFile, DecodeTrace, Analyze — over the corpus, one app at a
// time in a seeded order. The codec and the in-core ordering and
// extraction do the work; the simulator does none.
func runAnalyze(e *env) (*outcome, error) {
	dir := filepath.Join(e.dir, "corpus")
	setup, err := e.setupCorpus(dir, -1)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{"setup_s": setup}}
	rng := e.rng(2)
	ref := make([]string, len(appSet))
	var worst float64
	passes, err := timedPasses(e.seconds, nil, func(p int) (float64, error) {
		tables := make([]*pas2p.PhaseTable, len(appSet))
		ds, total, err := opPass(rng.Perm(len(appSet)), func(i int) (err error) {
			o.attempted++
			if tables[i], err = analyzeFile(tracePath(dir, appSet[i].name)); err != nil {
				o.failed++
				return fmt.Errorf("%s: %w", appSet[i].name, err)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		for i, tb := range tables {
			sum, err := tableDigest(tb)
			if err != nil {
				return 0, err
			}
			if ref[i] == "" {
				ref[i] = sum
				worst = max(worst, selfCheckPct(tb))
			} else if ref[i] != sum {
				return 0, fmt.Errorf("%s: table differs from the first pass's", appSet[i].name)
			}
		}
		e.logPass(p, ds)
		return total, nil
	})
	if err != nil {
		return o, err
	}
	if o.values["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return o, err
	}
	// Untimed: the streamed engine must produce the same tables.
	for i, a := range appSet {
		tb, _, err := streamFile(tracePath(dir, a.name), filepath.Join(e.dir, "spill"))
		if err != nil {
			return o, fmt.Errorf("%s: streamed: %w", a.name, err)
		}
		sum, err := tableDigest(tb)
		if err != nil {
			return o, err
		}
		if sum != ref[i] {
			return o, fmt.Errorf("%s: streamed table differs from the in-core one", a.name)
		}
	}
	o.values["pete_max_pct"] = worst
	o.values["pass_s"] = median(passes)
	return o, nil
}

// streamBudget is the stream workload's memory budget for phase
// matrices: one byte, so that every cold matrix spills and reloads.
const streamBudget = 1

// streamFile runs pas2p.AnalyzeStream over the tracefile at path with
// spill files under spillDir, returning the table and spill stats.
func streamFile(path, spillDir string) (*pas2p.PhaseTable, pas2p.StreamStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, pas2p.StreamStats{}, err
	}
	defer f.Close()
	br, err := pas2p.NewTraceBlockReader(f)
	if err != nil {
		return nil, pas2p.StreamStats{}, err
	}
	defer br.Close()
	res, err := pas2p.AnalyzeStream(context.Background(), br, pas2p.DefaultPhaseConfig(), 1,
		pas2p.AnalyzeStreamOptions{MemBudgetBytes: streamBudget, SpillDir: spillDir})
	if err != nil {
		return nil, pas2p.StreamStats{}, err
	}
	if err := res.Close(); err != nil {
		return nil, pas2p.StreamStats{}, err
	}
	return res.Table, res.Stats, nil
}
