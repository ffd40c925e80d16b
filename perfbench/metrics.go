package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists every metric an untraced run reports, with its unit.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"pass_s":       "s",
	"peak_rss_mib": "MiB",
	"pete_max_pct": "%",
}

// serveEndToEnd lists the metrics an untraced serve run adds.
var serveEndToEnd = map[string]string{
	"req_per_s": "1/s",
	"p50_ms":    "ms",
	"p99_ms":    "ms",
}

// appSet is the corpus every workload shares: five of the paper's
// applications at 64 ranks, predicted from base cluster A to target B.
var appSet = []struct{ name, workload string }{
	{"lu", "classC"},
	{"pop", "synthetic150"},
	{"moldy", "tip4p"},
	{"cg", "classC"},
	{"sp", "classC"},
}

const appRanks = 64

// serveClasses are the request classes of the serve workload.
var serveClasses = []string{"lookup", "analyze_hit", "analyze_miss", "analyze_stream", "predict", "sign"}

// perLayer lists every metric a traced run reports, with its unit.
var perLayer = func() map[string]string {
	m := map[string]string{
		"sim.base_s":             "s",
		"sim.traced_s":           "s",
		"sim.target_s":           "s",
		"trace.record_x":         "x",
		"logical.order_s":        "s",
		"phase.extract_s":        "s",
		"phase.table_s":          "s",
		"signature.build_s":      "s",
		"signature.execute_s":    "s",
		"trace.read_s":           "s",
		"trace.decode_s":         "s",
		"trace.rank_read_s":      "s",
		"logical.stream_order_s": "s",
		"phase.stream_extract_s": "s",
		"stream.spilled_phases":  "count",
		"stream.spill_loads":     "count",
		"stream.spill_bytes":     "B",
		"stream.events_per_s":    "1/s",
		"obs.overhead_pct.cg8":   "%",
		"obs.overhead_pct.cg64":  "%",
		"trace.events":           "count",
		"logical.ticks":          "count",
		"phase.relevant":         "count",
		"trace.overhead_pct":     "%",
		"stream.synth_s":         "s",
	}
	for _, a := range appSet {
		m["predict."+a.name+"_s"] = "s"
		m["analyze."+a.name+"_s"] = "s"
		m["stream."+a.name+"_s"] = "s"
	}
	return m
}()

// servePerLayer lists the metrics a traced run adds when it is the
// serve workload's.
var servePerLayer = func() map[string]string {
	m := map[string]string{
		"serve.cache_hit_ratio": "ratio",
		"serve.retries":         "count",
		"serve.requests":        "count",
		"serve.pass_s":          "s",
	}
	for _, c := range serveClasses {
		m["serve."+c+".p50_ms"] = "ms"
		m["serve."+c+".p99_ms"] = "ms"
		m["serve."+c+".n"] = "count"
	}
	return m
}()

// wantMetrics lists what a run of workload reports.
func wantMetrics(workload string, traced bool) map[string]string {
	base, extra := endToEnd, serveEndToEnd
	if traced {
		base, extra = perLayer, servePerLayer
	}
	if workload != "serve" {
		return base
	}
	m := map[string]string{}
	for _, src := range []map[string]string{base, extra} {
		for k, v := range src {
			m[k] = v
		}
	}
	return m
}

// finish turns raw values into a result's metrics, failing if a name
// is missing, unknown, or not a finite number.
func finish(values map[string]float64, want map[string]string) (map[string]metric, error) {
	var missing, unknown []string
	for name := range want {
		if _, ok := values[name]; !ok {
			missing = append(missing, name)
		}
	}
	out := map[string]metric{}
	for name, v := range values {
		unit, ok := want[name]
		if !ok {
			unknown = append(unknown, name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	sort.Strings(missing)
	sort.Strings(unknown)
	switch {
	case len(missing) > 0:
		return nil, fmt.Errorf("missing metrics: %s", strings.Join(missing, ", "))
	case len(unknown) > 0:
		return nil, fmt.Errorf("unknown metrics: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}
