package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	base := []float64{10, 10.2, 9.8, 10.1, 9.9} // spread 3%
	for _, c := range []struct {
		name   string
		cur    []float64
		better string
		want   string
	}{
		{"within spread", []float64{10.1, 10.3, 9.9, 10.2, 10.0}, "lower", verdictSame},
		{"slower", []float64{11, 11.2, 10.8, 11.1, 10.9}, "lower", verdictWorse},
		{"faster", []float64{9, 9.2, 8.8, 9.1, 8.9}, "lower", verdictBetter},
		{"fewer per second", []float64{9, 9.2, 8.8, 9.1, 8.9}, "higher", verdictWorse},
		{"unknown direction", []float64{11, 11.2, 10.8, 11.1, 10.9}, "", verdictChanged},
		{"noisy new set", []float64{8, 12, 10.5, 9, 11.5}, "lower", verdictSame},
	} {
		if got, _ := verdict(base, c.cur, c.better); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	// A deterministic metric has no spread: any change is flagged.
	exact := []float64{3.244, 3.244, 3.244}
	if got, _ := verdict(exact, []float64{3.244, 3.244}, "lower"); got != verdictSame {
		t.Errorf("identical exact values: %s", got)
	}
	if got, _ := verdict(exact, []float64{3.245, 3.245}, "lower"); got != verdictWorse {
		t.Errorf("changed exact values: %s", got)
	}
}

// writeRun writes one run file as the benchmark prints it.
func writeRun(t *testing.T, dir, name, workload string, correct bool, pass float64) {
	t.Helper()
	body := fmt.Sprintf(`{"host":{"workload":%q,"seed":1}}
{"correct":%v,"attempted":5,"failed":0,"metrics":{"pass_s":{"value":%v,"unit":"s"}}}
`, workload, correct, pass)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareCommand(t *testing.T) {
	old, cur := t.TempDir(), t.TempDir()
	for i, v := range []float64{1.00, 1.01, 0.99, 1.02, 0.98} {
		writeRun(t, old, fmt.Sprintf("a%d.json", i), "analyze", true, v)
		writeRun(t, cur, fmt.Sprintf("a%d.json", i), "analyze", true, v*1.2)
	}
	writeRun(t, cur, "broken.json", "analyze", false, 0)
	if err := os.WriteFile(filepath.Join(cur, "unfinished.json"), []byte(`{"host":{"workload":"analyze"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirs := map[string]string{"pass_s": "lower"}
	var out, errb bytes.Buffer
	if code := compareDirs([]string{old, cur}, dirs, &out, &errb); code != 1 {
		t.Fatalf("compare of a 20%% slowdown exited %d, want 1; stderr %s", code, errb.String())
	}
	for _, want := range []string{"2 runs skipped", "analyze", "pass_s", "+20.00%", "worse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareDirs([]string{old, old}, dirs, &out, &errb); code != 0 {
		t.Errorf("a set against itself exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"compare", old}, &out, &errb); code != 0 || !strings.Contains(out.String(), "spread") {
		t.Errorf("single-set summary exited %d:\n%s", code, out.String())
	}
}
