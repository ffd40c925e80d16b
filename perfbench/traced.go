package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pas2p"
	"pas2p/internal/logical"
	"pas2p/internal/phase"
	"pas2p/internal/trace"
)

// tracedRun returns the traced per-layer run of a workload. Every
// traced run goes through the predict, analyze, stream and observer
// layers, so that it reports every per-layer metric; the serve section
// runs only in the serve workload's traced run. The workload a run is
// named after decides which section's untraced twin gives the tracing
// overhead.
func tracedRun(workload string) workloadFunc {
	return func(e *env) (*outcome, error) {
		t := NewTracer(fmt.Sprintf("%s-%d-%d", workload, e.seed, time.Now().UnixNano()))
		s := &tracedSuite{e: e, t: t, dir: filepath.Join(e.dir, "corpus"), o: &outcome{values: map[string]float64{}}}
		err := s.run(workload)
		if werr := t.WriteFile(e.spans); err == nil && werr != nil {
			err = fmt.Errorf("writing spans: %w", werr)
		}
		return s.o, err
	}
}

// tracedSuite is one traced run's state.
type tracedSuite struct {
	e   *env
	t   *Tracer
	dir string
	o   *outcome
	// digests holds each app's in-core table digest, from the analyze
	// section, for the stream section to check against.
	digests map[string]string
	// untraced and traced are each section's pass times: the sum of its
	// operation times, each after a GC (serve: the pass's wall time).
	untraced, traced map[string]float64
}

func (s *tracedSuite) run(workload string) error {
	s.untraced, s.traced = map[string]float64{}, map[string]float64{}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	for _, sec := range []struct {
		name string
		fn   func(root int) error
	}{
		{"predict", s.predict},
		{"analyze", s.analyze},
		{"stream", s.stream},
		{"serve", s.serve},
		{"obs", s.observer},
	} {
		if sec.name == "serve" && workload != "serve" {
			continue
		}
		if err := s.t.Do(0, "section."+sec.name, sec.fn); err != nil {
			return fmt.Errorf("%s section: %w", sec.name, err)
		}
	}
	v := s.o.values
	self := selfTimes(s.t.Spans())
	for _, name := range []string{
		"sim.base", "sim.traced", "sim.target", "logical.order", "phase.extract", "phase.table",
		"signature.build", "signature.execute", "trace.read", "trace.decode",
		"trace.rank_read", "logical.stream_order", "phase.stream_extract",
	} {
		v[name+"_s"] = self[name]
	}
	v["trace.record_x"] = self["sim.traced"] / self["sim.base"]
	tot := totals(s.t.Spans())
	for _, a := range appSet {
		for _, sec := range []string{"predict", "analyze", "stream"} {
			v[sec+"."+a.name+"_s"] = tot[sec+"."+a.name]
			s.traced[sec] += tot[sec+"."+a.name]
		}
	}
	v["stream.synth_s"] = tot["stream.synth"]
	s.traced["stream"] += tot["stream.synth"]
	v["trace.overhead_pct"] = 100 * (s.traced[workload] - s.untraced[workload]) / s.untraced[workload]
	return nil
}

// predict runs pas2p.Predict over the app set untraced, twice (the
// first pass warms up), then the same pipeline stage by stage through
// the root API with a span around each call, and checks that every
// pass gives the same PET. The traced pass's traces become the corpus
// of the later sections.
func (s *tracedSuite) predict(root int) error {
	in, err := makePredictInputs()
	if err != nil {
		return err
	}
	order := s.e.rng(1).Perm(len(appSet))
	var outs []*pas2p.Outcome
	for p := 0; p < 2; p++ {
		_, untraced, got, err := in.predictPass(order)
		s.o.attempted += int64(len(appSet))
		if err != nil {
			s.o.failed++
			return err
		}
		if outs != nil {
			if err := samePredictions(outs, got); err != nil {
				return err
			}
		}
		outs = got
		s.untraced["predict"] = untraced
	}
	v := s.o.values
	for _, i := range order {
		s.o.attempted++
		runtime.GC()
		var tr *pas2p.Trace
		var pet pas2p.VDuration
		err := s.t.Do(root, "predict."+appSet[i].name, func(root int) error {
			var err error
			tr, pet, err = s.predictStages(root, in, i)
			return err
		})
		if err != nil {
			s.o.failed++
			return fmt.Errorf("%s: %w", appSet[i].name, err)
		}
		if pet != outs[i].PET {
			return fmt.Errorf("%s: stage-by-stage PET %v, pas2p.Predict %v", appSet[i].name, pet, outs[i].PET)
		}
		v["trace.events"] += float64(len(tr.Events))
		if err := writeTrace(tracePath(s.dir, appSet[i].name), tr); err != nil {
			return err
		}
	}
	return nil
}

// predictStages is Predict's Fig. 12 loop for app i, one root-API call
// per span. It returns the traced run's trace and the PET.
func (s *tracedSuite) predictStages(root int, in *predictInputs, i int) (*pas2p.Trace, pas2p.VDuration, error) {
	app := in.apps[i]
	t, v := s.t, s.o.values
	var traced *pas2p.RunResult
	var l *pas2p.Logical
	var an *pas2p.PhaseAnalysis
	var tb *pas2p.PhaseTable
	var sig *pas2p.Signature
	var res *pas2p.ExecResult
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sim.base", func() error {
			_, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: in.base})
			return err
		}},
		{"sim.traced", func() (err error) {
			traced, err = pas2p.RunApp(app, pas2p.RunConfig{Deployment: in.base, Trace: true, EventOverhead: eventOverhead})
			return err
		}},
		{"logical.order", func() (err error) { l, err = pas2p.OrderLogical(traced.Trace); return err }},
		{"phase.extract", func() (err error) { an, err = pas2p.ExtractPhases(l, pas2p.DefaultPhaseConfig()); return err }},
		{"phase.table", func() (err error) { tb, err = an.BuildTable(1); return err }},
		{"signature.build", func() (err error) {
			sig, _, err = pas2p.BuildSignature(app, tb, in.base, pas2p.DefaultSignatureOptions())
			return err
		}},
		{"signature.execute", func() (err error) { res, err = sig.Execute(in.target); return err }},
		{"sim.target", func() error {
			_, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: in.target})
			return err
		}},
	}
	for _, st := range steps {
		if err := t.Do(root, st.name, func(int) error { return st.fn() }); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	v["logical.ticks"] += float64(l.NumTicks())
	v["phase.relevant"] += float64(len(tb.RelevantRows()))
	return traced.Trace, res.PET, nil
}

// analyze runs the analyze path over the corpus untraced (a warm-up
// pass, then a timed one), then once more with a span around each
// root-API call, and checks that the tables match.
func (s *tracedSuite) analyze(root int) error {
	order := s.e.rng(2).Perm(len(appSet))
	s.digests = map[string]string{}
	tables := make([]*pas2p.PhaseTable, len(appSet))
	for p := 0; p < 2; p++ {
		_, untraced, err := opPass(order, func(i int) (err error) {
			s.o.attempted++
			if tables[i], err = analyzeFile(tracePath(s.dir, appSet[i].name)); err != nil {
				s.o.failed++
			}
			return err
		})
		if err != nil {
			return err
		}
		s.untraced["analyze"] = untraced
	}
	for i, tb := range tables {
		var err error
		if s.digests[appSet[i].name], err = tableDigest(tb); err != nil {
			return err
		}
	}
	for _, i := range order {
		name := appSet[i].name
		s.o.attempted++
		runtime.GC()
		var tb *pas2p.PhaseTable
		err := s.t.Do(root, "analyze."+name, func(root int) error {
			var data []byte
			var tr *pas2p.Trace
			var l *pas2p.Logical
			var an *pas2p.PhaseAnalysis
			for _, st := range []struct {
				name string
				fn   func() error
			}{
				{"trace.read", func() (err error) { data, err = os.ReadFile(tracePath(s.dir, name)); return err }},
				{"trace.decode", func() (err error) {
					tr, err = pas2p.DecodeTrace(bytes.NewReader(data), pas2p.TraceCodecOptions{})
					return err
				}},
				{"logical.order", func() (err error) { l, err = pas2p.OrderLogical(tr); return err }},
				{"phase.extract", func() (err error) { an, err = pas2p.ExtractPhases(l, pas2p.DefaultPhaseConfig()); return err }},
				{"phase.table", func() (err error) { tb, err = an.BuildTable(1); return err }},
			} {
				if err := s.t.Do(root, st.name, func(int) error { return st.fn() }); err != nil {
					return fmt.Errorf("%s: %w", st.name, err)
				}
			}
			return nil
		})
		if err != nil {
			s.o.failed++
			return fmt.Errorf("%s: %w", name, err)
		}
		sum, err := tableDigest(tb)
		if err != nil {
			return err
		}
		if sum != s.digests[name] {
			return fmt.Errorf("%s: stage-by-stage table differs from pas2p.Analyze's", name)
		}
	}
	return nil
}

// timedEvents times every NextEvent call of an event source.
type timedEvents struct {
	logical.EventSource
	callClock
}

func (s *timedEvents) NextEvent(p int, dst *trace.Event) (bool, error) {
	t0 := time.Now()
	ok, err := s.EventSource.NextEvent(p, dst)
	s.add(t0, time.Now())
	return ok, err
}

// timedTicks times every Next call of a tick source.
type timedTicks struct {
	phase.TickSource
	callClock
}

func (s *timedTicks) Next() (*logical.Tick, error) {
	t0 := time.Now()
	tk, err := s.TickSource.Next()
	s.add(t0, time.Now())
	return tk, err
}

// stream runs AnalyzeStream over the corpus and the synthetic trace
// untraced, then the same pipeline built from its exported parts with
// timing wrappers on the EventSource and TickSource interfaces, so that
// rank reads, the streamed ordering and the streamed extraction each
// get their self time. Every app's streamed table must match its
// in-core one.
func (s *tracedSuite) stream(root int) error {
	if _, err := writeSynth(tracePath(s.dir, "synth"), synthSpec(s.e.seed)); err != nil {
		return err
	}
	v := s.o.values
	names := streamInputs()
	order := s.e.rng(3).Perm(len(names))
	spill := filepath.Join(s.e.dir, "spill")
	var events uint64
	_, untraced, err := opPass(order, func(i int) error {
		s.o.attempted++
		if _, _, err := streamFile(tracePath(s.dir, names[i]), spill); err != nil {
			s.o.failed++
			return fmt.Errorf("%s: %w", names[i], err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.untraced["stream"] = untraced
	for _, i := range order {
		name := names[i]
		s.o.attempted++
		runtime.GC()
		var res *phase.StreamResult
		var n uint64
		err := s.t.Do(root, "stream."+name, func(root int) (err error) {
			res, n, err = s.streamStages(root, tracePath(s.dir, name), spill)
			return err
		})
		if err != nil {
			s.o.failed++
			return fmt.Errorf("%s: %w", name, err)
		}
		events += n
		v["stream.spilled_phases"] += float64(res.Stats.SpilledPhases)
		v["stream.spill_loads"] += float64(res.Stats.SpillLoads)
		v["stream.spill_bytes"] += float64(res.Stats.SpillBytes)
		if want, ok := s.digests[name]; ok {
			sum, err := tableDigest(res.Table)
			if err != nil {
				return err
			}
			if sum != want {
				return fmt.Errorf("%s: streamed table differs from the in-core one", name)
			}
		}
	}
	v["stream.events_per_s"] = float64(events) / s.untraced["stream"]
	return nil
}

// streamStages is AnalyzeStream from its parts: rank streams, the
// streamed logical order and the streamed extraction. It returns the
// result and the trace's event count.
func (s *tracedSuite) streamStages(root int, path, spill string) (*phase.StreamResult, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br, err := pas2p.NewTraceBlockReader(f)
	if err != nil {
		return nil, 0, err
	}
	defer br.Close()
	rs, err := br.RankStreams()
	if err != nil {
		return nil, 0, err
	}
	ev := &timedEvents{EventSource: rs}
	tick, err := logical.StreamOrder(ev)
	if err != nil {
		return nil, 0, err
	}
	ticks := &timedTicks{TickSource: tick}
	var res *phase.StreamResult
	err = s.t.Do(root, "phase.stream_extract", func(id int) (err error) {
		res, err = phase.ExtractStreamTable(context.Background(), ticks, tick.Meta(), 1, phase.StreamConfig{
			Config: pas2p.DefaultPhaseConfig(), MemBudgetBytes: streamBudget, SpillDir: spill,
		})
		order := s.t.Fold(id, "logical.stream_order", ticks.callClock)
		s.t.Fold(order, "trace.rank_read", ev.callClock)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return res, tick.Meta().Events, res.Close()
}

// serve runs one serve pass with a span per request, after an
// untraced pass that gives the tracing overhead.
func (s *tracedSuite) serve(root int) error {
	rig, _, err := setupServe(s.e)
	if err != nil {
		return err
	}
	defer rig.srv.close()
	prep := func(p int) (*passInputs, error) { return preparePass(s.e, p) }
	in, err := prep(-1)
	if err != nil {
		return err
	}
	if _, err := rig.gen.pass(in, 0); err != nil {
		return err
	}
	if in, err = prep(0); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := rig.gen.pass(in, 0); err != nil {
		return err
	}
	s.untraced["serve"] = time.Since(t0).Seconds()
	if in, err = prep(1); err != nil {
		return err
	}
	rig.gen.tracer = s.t
	var samples []sample
	t0 = time.Now()
	err = s.t.Do(root, "serve.pass", func(id int) (err error) {
		samples, err = rig.gen.pass(in, id)
		return err
	})
	s.o.attempted += int64(len(in.plan)) + rig.gen.retries.Load()
	s.o.failed += rig.gen.failed.Load()
	if err != nil {
		return err
	}
	s.traced["serve"] = time.Since(t0).Seconds()
	v := s.o.values
	v["serve.pass_s"] = s.traced["serve"]
	v["serve.requests"] = float64(len(samples))
	classStats(v, samples, rig.gen.retries.Load())
	return rig.srv.close()
}

// observer measures what pas2p.NewObserver costs pas2p.Predict on cg
// at 8 and 64 ranks: runs without and with an observer alternate after
// a warm-up, and the overhead compares their medians.
func (s *tracedSuite) observer(int) error {
	for _, c := range []struct {
		ranks, pairs int
	}{{8, 5}, {64, 2}} {
		base, err := pas2p.NewDeployment(pas2p.ClusterA(), c.ranks, pas2p.MapBlock)
		if err != nil {
			return err
		}
		target, err := pas2p.NewDeployment(pas2p.ClusterB(), c.ranks, pas2p.MapBlock)
		if err != nil {
			return err
		}
		app, err := pas2p.MakeApp("cg", c.ranks, "classC")
		if err != nil {
			return err
		}
		once := func(o *pas2p.Observer) (float64, error) {
			s.o.attempted++
			t0 := time.Now()
			_, err := pas2p.Predict(pas2p.Experiment{App: app, Base: base, Target: target, EventOverhead: eventOverhead, Observer: o})
			if err != nil {
				s.o.failed++
			}
			return time.Since(t0).Seconds(), err
		}
		if _, err := once(nil); err != nil {
			return err
		}
		var plain, observed []float64
		for p := 0; p < c.pairs; p++ {
			d, err := once(nil)
			if err != nil {
				return err
			}
			plain = append(plain, d)
			if d, err = once(pas2p.NewObserver()); err != nil {
				return err
			}
			observed = append(observed, d)
		}
		s.o.values[fmt.Sprintf("obs.overhead_pct.cg%d", c.ranks)] = 100 * (median(observed) - median(plain)) / median(plain)
	}
	return nil
}
