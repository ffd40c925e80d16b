package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestFinishRejectsMissingUnknownAndNaN(t *testing.T) {
	want := map[string]string{"pass_s": "s", "setup_s": "s"}
	if _, err := finish(map[string]float64{"pass_s": 1}, want); err == nil || !strings.Contains(err.Error(), "missing metrics: setup_s") {
		t.Errorf("missing name: %v", err)
	}
	if _, err := finish(map[string]float64{"pass_s": 1, "setup_s": 1, "pass_ms": 2}, want); err == nil || !strings.Contains(err.Error(), "unknown metrics: pass_ms") {
		t.Errorf("unknown name: %v", err)
	}
	if _, err := finish(map[string]float64{"pass_s": math.NaN(), "setup_s": 1}, want); err == nil {
		t.Error("NaN value accepted")
	}
	got, err := finish(map[string]float64{"pass_s": 1.5, "setup_s": 0.2}, want)
	if err != nil || got["pass_s"] != (metric{Value: 1.5, Unit: "s"}) {
		t.Errorf("finish = %v, %v", got, err)
	}
}

// TestSpecMatchesProgram checks that BENCHMARK.json lists exactly the
// metrics and workloads this program reports, with the same units.
func TestSpecMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		values := map[string]float64{}
		for _, m := range c.listed {
			if c.want[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, c.want[m.Name])
			}
			values[m.Name] = 1
		}
		if _, err := finish(values, c.want); err != nil {
			t.Errorf("BENCHMARK.json against the program: %v", err)
		}
	}
}
