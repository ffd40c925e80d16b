package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// resultSet is one set of runs: workload → metric → one value per run.
type resultSet map[string]map[string][]float64

// loadSet reads every run file in dir: the output of one run each, as
// the benchmark prints it (a host line, then the result line). Runs
// that did not finish or whose result is not correct are skipped and
// counted.
func loadSet(dir string) (resultSet, int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, 0, err
	}
	set := resultSet{}
	skipped := 0
	for _, p := range paths {
		workload, res, err := readRun(p)
		if err != nil || !res.Correct {
			skipped++
			continue
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[workload][name] = append(set[workload][name], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, skipped, fmt.Errorf("no correct runs in %s", dir)
	}
	return set, skipped, nil
}

// readRun returns a run file's workload, from its host line, and its
// result, the last line.
func readRun(path string) (string, result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", result{}, err
	}
	var workload, last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if len(bytes.TrimSpace([]byte(line))) == 0 {
			continue
		}
		var h struct {
			Host *struct {
				Workload string `json:"workload"`
			} `json:"host"`
		}
		if json.Unmarshal([]byte(line), &h) == nil && h.Host != nil {
			workload = h.Host.Workload
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return "", result{}, err
	}
	if workload == "" {
		return "", result{}, fmt.Errorf("no host line naming the workload")
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return "", result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return workload, res, nil
}

// directions reads which way each metric is better from a benchmark
// spec; a missing spec leaves every direction unknown.
func directions(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = m.Better
	}
	return out, nil
}

// Verdicts of a comparison.
const (
	verdictSame    = "same"
	verdictBetter  = "better"
	verdictWorse   = "worse"
	verdictChanged = "changed" // moved, but which way is better is unknown
)

// verdict compares two sets of values of one metric. The medians'
// difference counts only when it is wider than the spread (quartile
// distance over median) of either set; better is "lower", "higher" or
// unknown. It returns the verdict and the relative delta.
func verdict(old, cur []float64, better string) (string, float64) {
	mo, mn := median(old), median(cur)
	delta := relDelta(mo, mn)
	if math.Abs(delta) <= max(spread(old), spread(cur)) || mn == mo {
		return verdictSame, delta
	}
	switch {
	case better == "lower" && mn < mo, better == "higher" && mn > mo:
		return verdictBetter, delta
	case better == "lower", better == "higher":
		return verdictWorse, delta
	}
	return verdictChanged, delta
}

// relDelta is (cur-old)/|old|, with a zero old value compared
// absolutely.
func relDelta(old, cur float64) float64 {
	if old == 0 {
		return cur
	}
	return (cur - old) / math.Abs(old)
}

// runCompare is the "compare" subcommand: with one result set it
// prints each metric's median, quartiles and spread; with two it adds
// the delta of the medians and a verdict, and exits 1 if any metric
// got worse by more than the spread. Which way a metric is better
// comes from BENCHMARK.json in the working directory.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD_DIR [NEW_DIR]")
		return 2
	}
	dirs, err := directions("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	return compareDirs(args, dirs, stdout, stderr)
}

// compareDirs loads each result set and prints the comparison.
func compareDirs(paths []string, dirs map[string]string, stdout, stderr io.Writer) int {
	var sets []resultSet
	for _, d := range paths {
		s, skipped, err := loadSet(d)
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 1
		}
		if skipped > 0 {
			fmt.Fprintf(stdout, "%s: %d runs skipped: unfinished or not correct\n", d, skipped)
		}
		sets = append(sets, s)
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	worse := printComparison(tw, sets, dirs)
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}

// printComparison writes one row per workload and metric.
func printComparison(w io.Writer, sets []resultSet, dirs map[string]string) (worse bool) {
	if len(sets) == 1 {
		fmt.Fprintln(w, "workload\tmetric\tn\tmedian\tq1\tq3\tspread\t")
	} else {
		fmt.Fprintln(w, "workload\tmetric\tn\told median\told q1\told q3\tn\tnew median\tnew q1\tnew q3\tdelta\tspread\tverdict\t")
	}
	for _, wl := range sortedKeys(sets[0]) {
		for _, name := range sortedKeys(sets[0][wl]) {
			old := sets[0][wl][name]
			q1, q2, q3 := quartiles(old)
			row := fmt.Sprintf("%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t", wl, name, len(old), q2, q1, q3)
			if len(sets) == 1 {
				fmt.Fprintf(w, "%s%.2f%%\t\n", row, 100*spread(old))
				continue
			}
			cur := sets[1][wl][name]
			if len(cur) == 0 {
				fmt.Fprintf(w, "%s0\t\t\t\t\t\tmissing\t\n", row)
				continue
			}
			n1, n2, n3 := quartiles(cur)
			v, d := verdict(old, cur, dirs[name])
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%s%d\t%.6g\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%s\t\n", row, len(cur), n2, n1, n3,
				100*d, 100*max(spread(old), spread(cur)), v)
		}
	}
	return worse
}
