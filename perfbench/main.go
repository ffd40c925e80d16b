// Command perfbench is PAS2P-Go's benchmark. Each run measures one
// workload — predict, analyze, stream or serve — for a fixed time and
// prints, as its last line, one JSON object with the run's end-to-end
// metrics (-trace 0) or its per-layer metrics (-trace 1). See
// README.md for the workloads, the metrics and how to read a trace.
//
//	perfbench --workload analyze --seed 3 --seconds 20 --trace 0
//	perfbench compare OLD_DIR NEW_DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload gets: its seed, its time budget, a
// scratch directory that is removed when the run ends, the path of
// this executable for child processes, and where a traced run writes
// its spans.
type env struct {
	seed    int64
	seconds float64
	dir     string
	self    string
	spans   string
	log     io.Writer
}

// rng returns a generator for one purpose, derived from the run seed,
// so that adding a draw in one place never shifts another's inputs.
func (e *env) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + purpose))
}

// outcome is what a workload measured: raw metric values plus the
// operations it attempted and how many failed or were refused.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]struct{ plain, traced workloadFunc }{
	"predict": {runPredict, tracedRun("predict")},
	"analyze": {runAnalyze, tracedRun("analyze")},
	"stream":  {runStream, tracedRun("stream")},
	"serve":   {runServe, tracedRun("serve")},
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "corpus":
			return runCorpusChild(args[1:], stderr)
		case "reftables":
			return runRefTablesChild(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: predict, analyze, stream or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long the timed passes run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer suite instead of the timed passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload predict|analyze|stream|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, dir: dir, self: self, log: stderr,
		spans: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))}

	printHost(stdout, *name, *seed, *traced)
	fn := w.plain
	if *traced == 1 {
		fn = w.traced
	}
	out, err := fn(e)
	var metrics map[string]metric
	if err == nil {
		metrics, err = finish(out.values, wantMetrics(*name, *traced == 1))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		res := result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
		if out != nil && out.attempted > 0 {
			res.Attempted, res.Failed = out.attempted, max(out.failed, 1)
		}
		printJSON(stdout, res)
		return 1
	}
	printJSON(stdout, result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	return 0
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are printed
	}
	fmt.Fprintln(w, string(b))
}

// printHost records the facts needed to tell a drifting set of runs
// from a drifting program: CPUs, GOMAXPROCS, Go version and the load
// average when the run started.
func printHost(w io.Writer, workload string, seed int64, traced int) {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	printJSON(w, map[string]any{"host": map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"loadavg":    load,
		"start":      time.Now().UTC().Format(time.RFC3339),
	}})
}

// timedPasses runs one untimed warm-up pass, then timed passes until
// both minPasses have run and seconds of passes have been timed, with
// a GC before each so that no pass pays for the garbage of the one
// before. prepare, when not nil, makes a pass's inputs before it and
// is not timed. pass returns the time it measured, in seconds. Pass
// indices count from 0; the warm-up is pass -1.
func timedPasses(seconds float64, prepare func(i int) error, pass func(i int) (float64, error)) ([]float64, error) {
	var ds []float64
	var timed float64
	for i := -1; i < 0 || len(ds) < minPasses || timed < seconds; i++ {
		if prepare != nil {
			if err := prepare(i); err != nil {
				return nil, fmt.Errorf("preparing pass %d: %w", i, err)
			}
		}
		runtime.GC()
		d, err := pass(i)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if i >= 0 {
			ds = append(ds, d)
			timed += d
		}
	}
	return ds, nil
}

// opPass runs op for each index in order, with an untimed GC before
// each so that an operation's time does not depend on which ran before
// it. It returns each operation's time, indexed like the operations,
// and their sum: the pass time.
func opPass(order []int, op func(i int) error) ([]float64, float64, error) {
	ds := make([]float64, len(order))
	var total float64
	for _, i := range order {
		runtime.GC()
		t0 := time.Now()
		if err := op(i); err != nil {
			return nil, 0, err
		}
		ds[i] = time.Since(t0).Seconds()
		total += ds[i]
	}
	return ds, total, nil
}

// minPasses is the fewest timed passes a run reports a median of.
const minPasses = 3

// logPass writes a pass's per-operation times to the log, so that a
// drifting pass can be traced to the operation that drifted.
func (e *env) logPass(p int, ds []float64) {
	fmt.Fprintf(e.log, "pass %d:", p)
	for _, d := range ds {
		fmt.Fprintf(e.log, " %.4f", d)
	}
	fmt.Fprintln(e.log)
}

// setupMedian times setup several times, with a GC before each, and
// returns the median. A setup that takes under 200 ms is timed in
// batches of repeats at least that long, and its time is a batch's
// median divided by the batch size: a microsecond setup timed one by
// one reads mostly timer and allocator noise.
func setupMedian(setup func() error) (float64, error) {
	batch := 1
	var ds []float64
	for len(ds) < setupRepeats {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if err := setup(); err != nil {
				return 0, fmt.Errorf("setup: %w", err)
			}
		}
		d := time.Since(t0).Seconds()
		if d < 0.2 && batch < 1<<24 {
			batch *= 10
			ds = ds[:0]
			continue
		}
		ds = append(ds, d/float64(batch))
	}
	return median(ds), nil
}

// setupRepeats is how many setups, or batches of them, a run times.
const setupRepeats = 3

// peakRSSMiB is this process's high-water resident set, from
// getrusage; child processes are not included.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
