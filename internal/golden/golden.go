// Package golden holds the frozen stage-A answers that refactors of the
// analysis engine are checked against: for every registered app, the
// full phase table of its traced run plus the prediction it yields, on
// the paper's Table 5 (A→B) and Table 7 (C→A) machine pairs, and the
// table of one seeded synthetic trace. The records live as JSON under
// testdata/golden at the repository root; floats are stored as their
// exact IEEE-754 bits in hex so a one-ulp drift is visible.
package golden

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/mpi"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
	"pas2p/internal/vtime"
	"pas2p/internal/workload"
)

// Procs is the rank count every registered app accepts.
const Procs = 16

// EventOverhead is the per-event instrumentation cost of the traced
// run, the same the CLI and the scenario suite charge.
const EventOverhead = 8 * vtime.Microsecond

// Warm is the designated occurrence the tables are built with.
const Warm = 1

// Workloads maps each registered app to its smallest workload.
var Workloads = map[string]string{
	"bt": "classA", "sp": "classA", "cg": "classA", "ft": "classA",
	"lu": "classA", "ep": "classA", "is": "classA",
	"gromacs":      "d.villin",
	"masterworker": "rounds5",
	"moldy":        "tip4p-short",
	"pop":          "synthetic60",
	"smg2000":      "-n 120 solver 3",
	"sweep3d":      "sweep.150",
}

// Pairs are the base→target machine pairs of Tables 5 and 7.
var Pairs = [][2]string{{"A", "B"}, {"C", "A"}}

// SynthSpec is the seeded synthetic trace the corpus freezes.
var SynthSpec = workload.SynthSpec{AppName: "synth", Procs: 16, TargetEvents: 20000, Seed: 7}

// SynthName is the synthetic record's name.
const SynthName = "synth"

// Case is one app on one machine pair.
type Case struct {
	App, Workload, Base, Target string
}

// Name is the case's record name, e.g. "cg-A-B".
func (c Case) Name() string { return c.App + "-" + c.Base + "-" + c.Target }

// Cases lists every app on every pair, in a stable order.
func Cases() []Case {
	var out []Case
	for _, name := range apps.Names() {
		for _, p := range Pairs {
			out = append(out, Case{App: name, Workload: Workloads[name], Base: p[0], Target: p[1]})
		}
	}
	return out
}

// Deployment places the case's ranks block-mapped on a preset cluster.
func Deployment(cluster string) (*machine.Deployment, error) {
	c := machine.ByName(cluster)
	if c == nil {
		return nil, fmt.Errorf("golden: unknown cluster %q", cluster)
	}
	return machine.NewDeployment(c, Procs, machine.MapBlock)
}

// MakeApp instantiates the case's application.
func (c Case) MakeApp() (mpi.App, error) { return apps.Make(c.App, Procs, c.Workload) }

// TracedRun reproduces the instrumented base run whose trace the
// case's table was extracted from.
func (c Case) TracedRun() (*trace.Trace, error) {
	app, err := c.MakeApp()
	if err != nil {
		return nil, err
	}
	d, err := Deployment(c.Base)
	if err != nil {
		return nil, err
	}
	res, err := mpi.Run(app, mpi.RunConfig{Deployment: d, Trace: true, EventOverhead: EventOverhead})
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// Row is one phase-table row.
type Row struct {
	PhaseID, Weight        int
	PhaseET                int64
	Relevant               bool
	Occurrence             int
	StartTick, EndTick     int
	StartEvents, EndEvents []int64
	HasPair                bool
	End2Events             []int64
	ETScale                string
}

// Record is one frozen answer. PET, AET and SET are the prediction on
// the target (zero for the synthetic record, which has no app).
type Record struct {
	Name                string
	AppName             string
	Procs, TotalPhases  int
	BaseAET             int64
	Rows                []Row
	PET, AETTarget, SET int64
}

// FromTable records a phase table.
func FromTable(name string, tb *phase.Table) *Record {
	r := &Record{Name: name, AppName: tb.AppName, Procs: tb.Procs,
		TotalPhases: tb.TotalPhases, BaseAET: int64(tb.BaseAET)}
	for _, x := range tb.Rows {
		r.Rows = append(r.Rows, Row{
			PhaseID: x.PhaseID, Weight: x.Weight, PhaseET: int64(x.PhaseET), Relevant: x.Relevant,
			Occurrence: x.Occurrence, StartTick: x.StartTick, EndTick: x.EndTick,
			StartEvents: x.StartEvents, EndEvents: x.EndEvents,
			HasPair: x.HasPair, End2Events: x.End2Events, ETScale: hexFloat(x.ETScale),
		})
	}
	return r
}

func hexFloat(f float64) string { return fmt.Sprintf("%#016x", math.Float64bits(f)) }

// Path is where the record named name lives under dir.
func Path(dir, name string) string { return filepath.Join(dir, name+".json") }

// Load reads the record named name from dir.
func Load(dir, name string) (*Record, error) {
	data, err := os.ReadFile(Path(dir, name))
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", name, err)
	}
	return &r, nil
}

// Save writes the record to dir.
func Save(dir string, r *Record) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(Path(dir, r.Name), append(data, '\n'), 0o644)
}

// Diff lists every field where got drifts from the frozen want, as
// "name / phase N / field: old -> new" lines; nil means identical.
func Diff(want, got *Record) []string {
	w, g := fields(want), fields(got)
	wm, gm := index(w), index(g)
	var out []string
	for _, f := range w {
		if v, ok := gm[f.key]; !ok || v != f.val {
			if !ok {
				v = "<missing>"
			}
			out = append(out, fmt.Sprintf("%s / %s: %s -> %s", want.Name, f.key, f.val, v))
		}
	}
	for _, f := range g {
		if _, ok := wm[f.key]; !ok {
			out = append(out, fmt.Sprintf("%s / %s: <missing> -> %s", want.Name, f.key, f.val))
		}
	}
	return out
}

type field struct{ key, val string }

func index(l []field) map[string]string {
	m := make(map[string]string, len(l))
	for _, f := range l {
		m[f.key] = f.val
	}
	return m
}

// fields flattens a record into ordered key/value pairs.
func fields(r *Record) []field {
	l := []field{
		{"AppName", r.AppName}, {"Procs", strconv.Itoa(r.Procs)},
		{"TotalPhases", strconv.Itoa(r.TotalPhases)}, {"BaseAET", fmt.Sprint(r.BaseAET)},
		{"PET", fmt.Sprint(r.PET)}, {"AETTarget", fmt.Sprint(r.AETTarget)}, {"SET", fmt.Sprint(r.SET)},
	}
	ints := func(prefix, name string, v []int64) {
		l = append(l, field{prefix + name + ".len", strconv.Itoa(len(v))})
		for i, x := range v {
			l = append(l, field{fmt.Sprintf("%s%s[%d]", prefix, name, i), fmt.Sprint(x)})
		}
	}
	for _, x := range r.Rows {
		p := fmt.Sprintf("phase %d / ", x.PhaseID)
		l = append(l,
			field{p + "Weight", strconv.Itoa(x.Weight)},
			field{p + "PhaseET", fmt.Sprint(x.PhaseET)},
			field{p + "Relevant", strconv.FormatBool(x.Relevant)},
			field{p + "Occurrence", strconv.Itoa(x.Occurrence)},
			field{p + "StartTick", strconv.Itoa(x.StartTick)},
			field{p + "EndTick", strconv.Itoa(x.EndTick)},
			field{p + "HasPair", strconv.FormatBool(x.HasPair)},
			field{p + "ETScale", x.ETScale + " (" + decodeHex(x.ETScale) + ")"},
		)
		ints(p, "StartEvents", x.StartEvents)
		ints(p, "EndEvents", x.EndEvents)
		ints(p, "End2Events", x.End2Events)
	}
	return l
}

func decodeHex(s string) string {
	b, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return "invalid"
	}
	return strconv.FormatFloat(math.Float64frombits(b), 'g', -1, 64)
}
