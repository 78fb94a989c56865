package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CPISummary is a request CPI population summary: the average and the
// high-percentile worst cases Figure 13 plots.
type CPISummary struct {
	Average float64
	P99     float64
	P999    float64
}

// Figure13App compares request CPI under the original and contention-
// easing schedulers for one application.
type Figure13App struct {
	App             string
	Threshold       float64
	Original, Eased CPISummary
	Runs            int
}

// Figure13Result reproduces Figure 13: request CPI performance under
// contention-easing CPU scheduling (lower is better); the paper's result is
// a ~10% reduction of worst-case CPI with little change in the average.
type Figure13Result struct {
	Apps []Figure13App
}

// Figure13 runs the Figure 12 configurations and summarizes the pooled
// per-request CPI populations.
//
// Like Figure12, the independent simulations fan out concurrently when the
// config allows it, and the CPI populations are pooled afterward in the
// fixed serial order, so results match a sequential execution exactly.
func Figure13(cfg Config) (*Figure13Result, error) {
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
			return fmt.Errorf("figure13 %s calibration: %w", app.Name(), err)
		}
		st.threshold = sched.HighUsageThreshold(calib.Store, 80)
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
			Seed: cfg.Seed + int64(r)*101,
		}
		kind := "original"
		if easing {
			opts.PolicyName = "contention-easing"
			opts.UsageThreshold = st.threshold
			kind = "eased"
		}
		res, err := core.Run(opts, core.WithObserver(cfg.Obs))
		if err != nil {
			return fmt.Errorf("figure13 %s %s: %w", app.Name(), kind, err)
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

	out := &Figure13Result{}
	for i, app := range apps {
		st := &states[i]
		var origCPI, easedCPI []float64
		for r := 0; r < runs; r++ {
			origCPI = append(origCPI, st.orig[r].Store.MetricValues(metrics.CPI)...)
			easedCPI = append(easedCPI, st.eased[r].Store.MetricValues(metrics.CPI)...)
		}
		out.Apps = append(out.Apps, Figure13App{
			App:       app.Name(),
			Threshold: st.threshold,
			Original:  summarizeCPI(origCPI),
			Eased:     summarizeCPI(easedCPI),
			Runs:      runs,
		})
	}
	return out, nil
}

func summarizeCPI(xs []float64) CPISummary {
	return CPISummary{
		Average: stats.Mean(xs),
		P99:     stats.Percentile(xs, 99),
		P999:    stats.Percentile(xs, 99.9),
	}
}

// WorstCaseReduction returns the relative 99.9-percentile CPI reduction.
func (a Figure13App) WorstCaseReduction() float64 {
	if a.Original.P999 == 0 {
		return 0
	}
	return 1 - a.Eased.P999/a.Original.P999
}

// String renders the comparison.
func (r *Figure13Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 13: request CPI under contention-easing scheduling\n")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "\n%s (%d runs):\n", a.App, a.Runs)
		rows := [][]string{
			{"average", fmt.Sprintf("%.3f", a.Original.Average), fmt.Sprintf("%.3f", a.Eased.Average)},
			{"99 percentile", fmt.Sprintf("%.3f", a.Original.P99), fmt.Sprintf("%.3f", a.Eased.P99)},
			{"99.9 percentile", fmt.Sprintf("%.3f", a.Original.P999), fmt.Sprintf("%.3f", a.Eased.P999)},
		}
		b.WriteString(table([]string{"CPI", "original", "contention easing"}, rows))
		fmt.Fprintf(&b, "worst-case (p99.9) reduction: %.1f%%\n", a.WorstCaseReduction()*100)
	}
	return b.String()
}
