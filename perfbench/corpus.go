package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"pas2p"
	"pas2p/internal/workload"
)

// eventOverhead is the per-event instrumentation cost the pas2p CLI
// charges traced runs; the corpus and the predictions use the same.
const eventOverhead = 8 * pas2p.VDuration(1000)

// deployments returns the base (cluster A) and target (cluster B)
// deployments of the app set.
func deployments() (base, target *pas2p.Deployment, err error) {
	if base, err = pas2p.NewDeployment(pas2p.ClusterA(), appRanks, pas2p.MapBlock); err != nil {
		return nil, nil, err
	}
	target, err = pas2p.NewDeployment(pas2p.ClusterB(), appRanks, pas2p.MapBlock)
	return base, target, err
}

// tracePath is where the corpus keeps app's tracefile.
func tracePath(dir, app string) string { return filepath.Join(dir, app+".pas2p") }

// writeTrace encodes tr to path with the serial codec.
func writeTrace(path string, tr *pas2p.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := pas2p.EncodeTrace(w, tr, pas2p.TraceCodecOptions{Workers: 1}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCorpus traces each app of the set once, one at a time, on the
// base deployment and writes its tracefile into dir.
func writeCorpus(dir string) error {
	base, _, err := deployments()
	if err != nil {
		return err
	}
	for _, a := range appSet {
		app, err := pas2p.MakeApp(a.name, appRanks, a.workload)
		if err != nil {
			return err
		}
		rr, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: base, Trace: true, EventOverhead: eventOverhead})
		if err != nil {
			return fmt.Errorf("tracing %s: %w", a.name, err)
		}
		if err := writeTrace(tracePath(dir, a.name), rr.Trace); err != nil {
			return fmt.Errorf("writing %s: %w", a.name, err)
		}
	}
	return nil
}

// synthSpec is the seeded synthetic trace of the stream workload: a
// ring with a periodic allreduce over more ranks than the app set, big
// enough that holding it in memory (~100 B an event) would dwarf the
// streamed engine's footprint.
func synthSpec(seed int64) workload.SynthSpec {
	return workload.SynthSpec{AppName: "synth", Procs: 128, TargetEvents: 2_000_000, Seed: uint64(seed)}
}

// writeSynth writes spec's trace to path in O(1) memory.
func writeSynth(path string, spec workload.SynthSpec) (pas2p.TraceMeta, error) {
	f, err := os.Create(path)
	if err != nil {
		return pas2p.TraceMeta{}, err
	}
	meta, err := workload.Synthesize(f, spec)
	if err != nil {
		f.Close()
		return meta, err
	}
	return meta, f.Close()
}

// runCorpusChild is the "corpus" subcommand: write the app corpus (and
// optionally the synthetic trace) in a process of its own, so that the
// parent's peak RSS never includes a materialised trace.
func runCorpusChild(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("corpus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "directory to write the tracefiles into")
	synthSeed := fs.Int64("synth-seed", -1, "also write the synthetic trace with this seed")
	if err := fs.Parse(args); err != nil || *dir == "" {
		return 2
	}
	if err := writeCorpus(*dir); err != nil {
		fmt.Fprintf(stderr, "corpus: %v\n", err)
		return 1
	}
	if *synthSeed >= 0 {
		if _, err := writeSynth(filepath.Join(*dir, "synth.pas2p"), synthSpec(*synthSeed)); err != nil {
			fmt.Fprintf(stderr, "corpus: synth: %v\n", err)
			return 1
		}
	}
	return 0
}

// child runs this executable with args, returning its standard output.
func (e *env) child(args ...string) ([]byte, error) {
	cmd := exec.Command(e.self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = e.log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", args[0], err)
	}
	return out.Bytes(), nil
}

// setupCorpus writes the corpus into dir with a child process several
// times and returns the median wall time. Every repeat must write the
// same bytes: tracing is deterministic.
func (e *env) setupCorpus(dir string, synthSeed int64) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var first map[string]string
	return setupMedian(func() error {
		if _, err := e.child("corpus", "-dir", dir, "-synth-seed", strconv.FormatInt(synthSeed, 10)); err != nil {
			return err
		}
		sums, err := fileDigests(dir)
		if err != nil {
			return err
		}
		if first == nil {
			first = sums
			return nil
		}
		for name, s := range sums {
			if first[name] != s {
				return fmt.Errorf("a repeated setup wrote a different %s than the first", name)
			}
		}
		return nil
	})
}

// fileDigests hashes every tracefile in dir.
func fileDigests(dir string) (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.pas2p"))
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		out[filepath.Base(p)] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// tableDigest identifies a phase table bit for bit.
func tableDigest(tb *pas2p.PhaseTable) (string, error) {
	b, err := json.Marshal(tb)
	if err != nil {
		return "", err
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:]), nil
}

// analyzeFile is the pas2p analyze path over one tracefile: read it,
// decode it, run stage A.
func analyzeFile(path string) (*pas2p.PhaseTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := pas2p.DecodeTrace(bytes.NewReader(data), pas2p.TraceCodecOptions{})
	if err != nil {
		return nil, err
	}
	_, tb, err := pas2p.Analyze(tr, pas2p.DefaultPhaseConfig(), 1)
	return tb, err
}

// runRefTablesChild is the "reftables" subcommand: analyse each app of
// the corpus in-core and print the table digests as JSON, so that the
// stream workload can check its tables without ever holding a trace.
func runRefTablesChild(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reftables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "corpus directory")
	if err := fs.Parse(args); err != nil || *dir == "" {
		return 2
	}
	out := map[string]string{}
	for _, a := range appSet {
		tb, err := analyzeFile(tracePath(*dir, a.name))
		if err == nil {
			out[a.name], err = tableDigest(tb)
		}
		if err != nil {
			fmt.Fprintf(stderr, "reftables: %s: %v\n", a.name, err)
			return 1
		}
	}
	printJSON(stdout, out)
	return 0
}
