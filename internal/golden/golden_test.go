package golden

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pas2p/internal/phase"
)

func sampleTable(etScale float64) *phase.Table {
	return &phase.Table{AppName: "x", Procs: 2, BaseAET: 100, TotalPhases: 1, Rows: []phase.TableRow{{
		PhaseID: 1, Weight: 3, PhaseET: 30, Relevant: true, Occurrence: 1, StartTick: 2, EndTick: 4,
		StartEvents: []int64{1, 1}, EndEvents: []int64{2, 2}, HasPair: true, End2Events: []int64{3, 3},
		ETScale: etScale,
	}}}
}

// TestDiffNamesField: a one-ulp ETScale drift and a changed boundary
// are each reported as name / phase / field with old and new values.
func TestDiffNamesField(t *testing.T) {
	want := FromTable("x-A-B", sampleTable(0.75))
	got := FromTable("x-A-B", sampleTable(math.Nextafter(0.75, 1)))
	got.Rows[0].EndEvents = []int64{2, 5}
	d := Diff(want, got)
	if len(d) != 2 {
		t.Fatalf("want 2 drifting fields, got %q", d)
	}
	for i, w := range []string{
		"x-A-B / phase 1 / ETScale: 0x3fe8000000000000 (0.75) -> 0x3fe8000000000001 (0.7500000000000001)",
		"x-A-B / phase 1 / EndEvents[1]: 2 -> 5",
	} {
		if d[i] != w {
			t.Errorf("diff line %d = %q, want %q", i, d[i], w)
		}
	}
	got.Rows = nil
	if d := Diff(want, got); !strings.Contains(strings.Join(d, "\n"), "phase 1 / Weight: 3 -> <missing>") {
		t.Errorf("a vanished phase is not reported: %q", d)
	}
	if d := Diff(got, want); !strings.Contains(strings.Join(d, "\n"), "phase 1 / Weight: <missing> -> 3") {
		t.Errorf("a new phase is not reported: %q", d)
	}
	if d := Diff(want, want); d != nil {
		t.Errorf("identical records differ: %q", d)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := FromTable("x-A-B", sampleTable(0.5))
	r.PET, r.AETTarget, r.SET = 1, 2, 3
	if err := Save(dir, r); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir, r.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, r)
	}
	if _, err := Load(dir, "absent"); err == nil {
		t.Error("loading an absent record succeeded")
	}
}

func TestCases(t *testing.T) {
	cs := Cases()
	if len(cs) != len(Workloads)*len(Pairs) {
		t.Fatalf("%d cases for %d apps x %d pairs", len(cs), len(Workloads), len(Pairs))
	}
	for _, c := range cs {
		if c.Workload == "" {
			t.Errorf("%s has no workload", c.Name())
		}
	}
	for _, c := range FaultCases() {
		if inj, err := c.Injector(); err != nil || inj == nil || !strings.HasSuffix(c.Name(), "-"+c.Tag) {
			t.Errorf("%s: injector %v, %v", c.Name(), inj, err)
		}
	}
	if inj, err := cs[0].Injector(); inj != nil || err != nil {
		t.Errorf("fault-free case built injector %v, %v", inj, err)
	}
	if _, err := Deployment("Z"); err == nil {
		t.Error("unknown cluster accepted")
	}
	tr, err := Case{App: "masterworker", Workload: Workloads["masterworker"], Base: "A", Target: "B"}.TracedRun()
	if err != nil || tr.Procs != Procs {
		t.Fatalf("traced run: %v", err)
	}
}
