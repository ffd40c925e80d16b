package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pas2p/internal/golden"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
	"pas2p/internal/workload"
)

// TestAnalyzeStreamCLI drives `analyze -o` end to end over the golden
// corpus's synthetic trace and requires the emitted phase table to be
// the frozen one: streamed straight off the v2 file, with a 1-byte
// budget that forces every phase matrix through the spill path, and
// decoded from the JSON encoding of the same trace.
func TestAnalyzeStreamCLI(t *testing.T) {
	want, err := golden.Load(filepath.Join("..", "..", "testdata", "golden"), golden.SynthName)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if _, err := workload.Synthesize(&buf, golden.SynthSpec); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	v2 := filepath.Join(dir, "synth.pas2p")
	if err := os.WriteFile(v2, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := trace.EncodeJSON(&js, tr); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "synth.json")
	if err := os.WriteFile(jsonPath, js.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	warm := strconv.Itoa(golden.Warm)
	for name, args := range map[string][]string{
		"streamed":     {"-trace", v2},
		"forced-spill": {"-trace", v2, "-mem-budget", "1B"},
		"decoded-json": {"-trace", jsonPath},
	} {
		out := filepath.Join(dir, name+".json")
		if err := cmdAnalyze(append(args, "-warm", warm, "-o", out)); err != nil {
			t.Fatalf("analyze (%s): %v", name, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var tb phase.Table
		if err := json.Unmarshal(data, &tb); err != nil {
			t.Fatal(err)
		}
		if d := golden.Diff(want, golden.FromTable(want.Name, &tb)); len(d) > 0 {
			t.Fatalf("analyze (%s) drifts from the frozen table (old -> new):\n%s", name, strings.Join(d, "\n"))
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"123", 123},
		{"1KiB", 1 << 10},
		{"64MiB", 64 << 20},
		{"2GiB", 2 << 30},
		{"1KB", 1_000},
		{"5MB", 5_000_000},
		{"3GB", 3_000_000_000},
		{"2K", 2 << 10},
		{"1M", 1 << 20},
		{"1G", 1 << 30},
		{"512B", 512},
		{" 16 MiB ", 16 << 20},
		{"1.5KiB", 1536},
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if err != nil {
			t.Errorf("parseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "-1", "wat", "1XiB", "KiB"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q): want error, got nil", bad)
		}
	}
}
