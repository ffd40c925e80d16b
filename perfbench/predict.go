package main

import (
	"fmt"

	"pas2p"
)

// predictInputs is the predict workload's setup: the app set's
// applications and the base and target deployments.
type predictInputs struct {
	apps         []pas2p.App
	base, target *pas2p.Deployment
}

func makePredictInputs() (*predictInputs, error) {
	base, target, err := deployments()
	if err != nil {
		return nil, err
	}
	in := &predictInputs{base: base, target: target}
	for _, a := range appSet {
		app, err := pas2p.MakeApp(a.name, appRanks, a.workload)
		if err != nil {
			return nil, err
		}
		in.apps = append(in.apps, app)
	}
	return in, nil
}

// predictApp runs what `pas2p predict` runs for app i.
func (in *predictInputs) predictApp(i int) (*pas2p.Outcome, error) {
	out, err := pas2p.Predict(pas2p.Experiment{
		App: in.apps[i], Base: in.base, Target: in.target, EventOverhead: eventOverhead,
	})
	if err != nil {
		return nil, fmt.Errorf("predict %s: %w", appSet[i].name, err)
	}
	return out, nil
}

// predictPass predicts every app once in order, returning each app's
// time (indexed like appSet), the pass time and the outcomes.
func (in *predictInputs) predictPass(order []int) ([]float64, float64, []*pas2p.Outcome, error) {
	outs := make([]*pas2p.Outcome, len(appSet))
	ds, total, err := opPass(order, func(i int) (err error) {
		outs[i], err = in.predictApp(i)
		return err
	})
	return ds, total, outs, err
}

// runPredict is the predict workload: pas2p.Predict for every app of
// the set, in a seeded order. The simulator dominates it.
func runPredict(e *env) (*outcome, error) {
	var in *predictInputs
	setup, err := setupMedian(func() error {
		var err error
		in, err = makePredictInputs()
		return err
	})
	if err != nil {
		return nil, err
	}
	rng := e.rng(1)
	var ref []*pas2p.Outcome
	o := &outcome{values: map[string]float64{"setup_s": setup}}
	passes, err := timedPasses(e.seconds, nil, func(p int) (float64, error) {
		ds, total, outs, err := in.predictPass(rng.Perm(len(appSet)))
		o.attempted += int64(len(appSet))
		if err != nil {
			o.failed++
			return 0, err
		}
		if ref == nil {
			ref = outs
		} else if err := samePredictions(ref, outs); err != nil {
			return 0, err
		}
		e.logPass(p, ds)
		return total, nil
	})
	if err != nil {
		return o, err
	}
	if o.values["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return o, err
	}
	o.values["pete_max_pct"] = maxPETE(ref)
	o.values["pass_s"] = median(passes)
	return o, nil
}

// samePredictions checks that a pass predicted exactly what the first
// pass did: the pipeline is deterministic, so any difference is a bug.
func samePredictions(ref, got []*pas2p.Outcome) error {
	for i := range ref {
		if got[i].PET != ref[i].PET || got[i].AETTarget != ref[i].AETTarget {
			return fmt.Errorf("%s: PET/AET %v/%v, first pass %v/%v",
				appSet[i].name, got[i].PET, got[i].AETTarget, ref[i].PET, ref[i].AETTarget)
		}
	}
	return nil
}

// maxPETE is the largest prediction error over the app set, in percent.
func maxPETE(outs []*pas2p.Outcome) float64 {
	var m float64
	for _, o := range outs {
		m = max(m, o.PETEPercent)
	}
	return m
}
