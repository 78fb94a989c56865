package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Figure12App compares high-resource-usage co-execution with and without
// contention-easing scheduling for one application.
type Figure12App struct {
	App string
	// Threshold is the 80-percentile L2 misses-per-instruction boundary.
	Threshold float64
	// Original and Eased are time proportions (averaged over runs) of ≥2,
	// ≥3, and 4 cores simultaneously executing at high usage.
	Original, Eased sched.HighUsageCoExecution
	// Runs is the number of averaged test runs (the paper uses three
	// 1000-request runs).
	Runs int
}

// Figure12Result reproduces Figure 12: effectiveness of contention-easing
// request scheduling for TPCH and WeBWorK.
type Figure12Result struct {
	Apps []Figure12App
}

// Figure12 calibrates the per-application high-usage threshold from a
// baseline run, then measures co-execution proportions under the original
// and contention-easing schedulers, averaging several runs.
//
// All simulations are independent closed-loop runs, so they execute
// concurrently when the config allows it (see forEachIndex): first the
// per-app calibrations, then every (app, run, policy) measurement.
// Aggregation happens afterward in the fixed serial order, keeping results
// bit-identical to a sequential execution.
func Figure12(cfg Config) (*Figure12Result, error) {
	apps := []workload.App{workload.NewTPCH(), workload.NewWeBWorK()}
	const runs = 3
	par := cfg.parallelizable()

	type appRuns struct {
		n           int
		threshold   float64
		orig, eased [runs]*core.Result
	}
	states := make([]appRuns, len(apps))

	err := forEachIndex(len(apps), par, func(i int) error {
		app, st := apps[i], &states[i]
		st.n = cfg.schedRequests(app.Name())
		calib, err := core.Run(core.Options{
			App: app, Requests: st.n, Seed: cfg.Seed,
		}, core.WithSampling(schedSampling(app)), core.WithObserver(cfg.Obs))
		if err != nil {
			return fmt.Errorf("figure12 %s calibration: %w", app.Name(), err)
		}
		st.threshold = sched.HighUsageThreshold(calib.Store, 80)
		if st.threshold <= 0 {
			return fmt.Errorf("figure12 %s: degenerate threshold", app.Name())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = forEachIndex(len(apps)*runs*2, par, func(j int) error {
		i, r, easing := j/(runs*2), (j%(runs*2))/2, j%2 == 1
		app, st := apps[i], &states[i]
		opts := core.Options{
			App: app, Requests: st.n, Sampling: schedSampling(app),
			UsageThreshold: st.threshold, MeterCoExecution: true,
			Seed: cfg.Seed + int64(r)*101,
		}
		kind := "original"
		if easing {
			opts.PolicyName = "contention-easing"
			kind = "eased"
		}
		res, err := core.Run(opts, core.WithObserver(cfg.Obs))
		if err != nil {
			return fmt.Errorf("figure12 %s %s: %w", app.Name(), kind, err)
		}
		if easing {
			st.eased[r] = res
		} else {
			st.orig[r] = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &Figure12Result{}
	for i, app := range apps {
		st := &states[i]
		var orig, eased sched.HighUsageCoExecution
		for r := 0; r < runs; r++ {
			o, e := st.orig[r], st.eased[r]
			orig.AtLeast2 += o.CoExecution.AtLeast2 / runs
			orig.AtLeast3 += o.CoExecution.AtLeast3 / runs
			orig.All4 += o.CoExecution.All4 / runs
			eased.AtLeast2 += e.CoExecution.AtLeast2 / runs
			eased.AtLeast3 += e.CoExecution.AtLeast3 / runs
			eased.All4 += e.CoExecution.All4 / runs
		}
		out.Apps = append(out.Apps, Figure12App{
			App: app.Name(), Threshold: st.threshold,
			Original: orig, Eased: eased, Runs: runs,
		})
	}
	return out, nil
}

// Reduction returns the relative reduction of the 4-cores-high proportion.
func (a Figure12App) Reduction() float64 {
	if a.Original.All4 == 0 {
		return 0
	}
	return 1 - a.Eased.All4/a.Original.All4
}

// String renders the per-level comparison.
func (r *Figure12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12: contention-easing scheduling, high-usage co-execution time\n")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "\n%s (threshold %.2e misses/ins, %d runs):\n", a.App, a.Threshold, a.Runs)
		rows := [][]string{
			{">=2 cores", pct(a.Original.AtLeast2), pct(a.Eased.AtLeast2), pctDelta(a.Original.AtLeast2, a.Eased.AtLeast2)},
			{">=3 cores", pct(a.Original.AtLeast3), pct(a.Eased.AtLeast3), pctDelta(a.Original.AtLeast3, a.Eased.AtLeast3)},
			{"4 cores", pct(a.Original.All4), pct(a.Eased.All4), pctDelta(a.Original.All4, a.Eased.All4)},
		}
		b.WriteString(table([]string{"level", "original", "contention easing", "reduction"}, rows))
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

func pctDelta(orig, eased float64) string {
	if orig == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", (1-eased/orig)*100)
}
