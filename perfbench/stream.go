package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"pas2p"
)

// inCoreBytesPerEvent is roughly what a decoded event costs in memory.
const inCoreBytesPerEvent = 100

// streamInputs names the stream workload's tracefiles: the corpus plus
// the synthetic trace, which comes last.
func streamInputs() []string {
	names := make([]string, 0, len(appSet)+1)
	for _, a := range appSet {
		names = append(names, a.name)
	}
	return append(names, "synth")
}

// streamShape is what must repeat exactly from pass to pass.
type streamShape struct{ ticks, phases, relevant int }

func shapeOf(tb *pas2p.PhaseTable, st pas2p.StreamStats) streamShape {
	return streamShape{ticks: st.Ticks, phases: tb.TotalPhases, relevant: len(tb.RelevantRows())}
}

// runStream is the stream workload: pas2p.AnalyzeStream from a file
// over the corpus and a seeded synthetic trace, under a memory budget
// that makes phase matrices spill. A child process writes the corpus,
// so this process never holds a materialised trace and its peak RSS is
// the streamed engine's own.
func runStream(e *env) (*outcome, error) {
	dir := filepath.Join(e.dir, "corpus")
	setup, err := e.setupCorpus(dir, e.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{"setup_s": setup}}
	names := streamInputs()
	spill := filepath.Join(e.dir, "spill")
	rng := e.rng(3)
	ref := make([]streamShape, len(names))
	digests := make([]string, len(names))
	var worst float64
	passes, err := timedPasses(e.seconds, nil, func(p int) (float64, error) {
		shapes := make([]streamShape, len(names))
		tables := make([]*pas2p.PhaseTable, len(names))
		ds, total, err := opPass(rng.Perm(len(names)), func(i int) error {
			o.attempted++
			tb, st, err := streamFile(tracePath(dir, names[i]), spill)
			if err != nil {
				o.failed++
				return fmt.Errorf("%s: %w", names[i], err)
			}
			tables[i], shapes[i] = tb, shapeOf(tb, st)
			return nil
		})
		if err != nil {
			return 0, err
		}
		for i, sh := range shapes {
			if p >= 0 {
				if sh != ref[i] {
					return 0, fmt.Errorf("%s: ticks/phases/relevant %v, first pass %v", names[i], sh, ref[i])
				}
				continue
			}
			ref[i] = sh
			worst = max(worst, selfCheckPct(tables[i]))
			if digests[i], err = tableDigest(tables[i]); err != nil {
				return 0, err
			}
		}
		e.logPass(p, ds)
		return total, nil
	})
	if err != nil {
		return o, err
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return o, err
	}
	o.values["peak_rss_mib"] = peak
	synth := synthSpec(e.seed)
	if inCore := float64(synth.TargetEvents*inCoreBytesPerEvent) / (1 << 20); inCore < 3*peak {
		return o, fmt.Errorf("synthetic trace's in-core footprint %.0f MiB is under 3x the streamed peak %.0f MiB", inCore, peak)
	}
	// Untimed: in a child process, the in-core engine must produce the
	// same tables for the corpus apps.
	b, err := e.child("reftables", "-dir", dir)
	if err != nil {
		return o, err
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		return o, fmt.Errorf("reftables output: %w", err)
	}
	for i, a := range appSet {
		if want[a.name] != digests[i] {
			return o, fmt.Errorf("%s: streamed table differs from the in-core one", a.name)
		}
	}
	o.values["pete_max_pct"] = worst
	o.values["pass_s"] = median(passes)
	return o, nil
}
