package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Figure5App compares sampling overhead for one application.
type Figure5App struct {
	App string
	// InterruptSamples and SyscallSamples are total sample counts (the
	// calibration target: similar overall sampling frequencies).
	InterruptSamples, SyscallSamples uint64
	// BackupShare is the fraction of syscall-mode samples taken by the
	// backup interrupt.
	BackupShare float64
	// InterruptOverheadNs and SyscallOverheadNs are estimated total costs
	// (per-sample costs of Table 1, Mbench-Spin).
	InterruptOverheadNs, SyscallOverheadNs float64
	// Normalized is SyscallOverheadNs / InterruptOverheadNs.
	Normalized float64
	// BaseCostPct is the interrupt-based sampling cost as a percentage of
	// total CPU consumption (the numbers atop Figure 5's bars).
	BaseCostPct float64
	// InterruptCoV and SyscallCoV verify that both approaches capture
	// similar levels of request behavior variation.
	InterruptCoV, SyscallCoV float64
}

// Figure5Result reproduces Figure 5: the overhead comparison of system
// call-triggered vs interrupt-based processor counter sampling.
type Figure5Result struct {
	Apps []Figure5App
}

// Figure5 runs both sampling schemes per application, calibrating the
// syscall-triggered scheme's TsyscallMin so both produce similar overall
// sampling frequencies, then compares estimated overheads.
func Figure5(cfg Config) (*Figure5Result, error) {
	out := &Figure5Result{}
	for _, app := range appSet() {
		n := cfg.modelingRequests(app.Name())
		intr, err := runTracked(cfg, app, 0, n, false)
		if err != nil {
			return nil, fmt.Errorf("figure5 %s interrupt: %w", app.Name(), err)
		}

		scfg := core.SyscallSampling(app)
		sys, err := core.Run(core.Options{
			App: app, Requests: n, Sampling: scfg, Seed: cfg.Seed,
		}, core.WithObserver(cfg.Obs))
		if err != nil {
			return nil, fmt.Errorf("figure5 %s syscall: %w", app.Name(), err)
		}
		// Calibrate TsyscallMin and the backup delay so the syscall scheme
		// produces a similar overall sampling frequency to the interrupt
		// scheme's — the paper's fairness condition. Counts scale roughly
		// inversely with both knobs, so scaling by the count ratio
		// converges in a few passes.
		for pass := 0; pass < 4; pass++ {
			if sys.Samples.Total() == 0 || intr.Samples.Total() == 0 {
				break
			}
			ratio := float64(sys.Samples.Total()) / float64(intr.Samples.Total())
			if ratio > 0.9 && ratio < 1.1 {
				break
			}
			scfg.TsyscallMin = sim.Time(float64(scfg.TsyscallMin) * ratio)
			if scfg.TsyscallMin < 200*sim.Nanosecond {
				scfg.TsyscallMin = 200 * sim.Nanosecond
			}
			scfg.TbackupInt = sim.Time(float64(scfg.TbackupInt) * ratio)
			if scfg.TbackupInt < 4*scfg.TsyscallMin {
				scfg.TbackupInt = 4 * scfg.TsyscallMin
			}
			sys, err = core.Run(core.Options{
				App: app, Requests: n, Sampling: scfg, Seed: cfg.Seed,
			}, core.WithObserver(cfg.Obs))
			if err != nil {
				return nil, fmt.Errorf("figure5 %s recalibrated: %w", app.Name(), err)
			}
		}

		iOver := intr.Samples.OverheadNs()
		sOver := sys.Samples.OverheadNs()
		var totalCPU float64
		for _, tr := range intr.Store.Traces {
			totalCPU += float64(tr.CPUTime())
		}
		fa := Figure5App{
			App:                 app.Name(),
			InterruptSamples:    intr.Samples.Total(),
			SyscallSamples:      sys.Samples.Total(),
			InterruptOverheadNs: iOver,
			SyscallOverheadNs:   sOver,
			InterruptCoV:        sampleCoV(intr.Store, metrics.CPI),
			SyscallCoV:          sampleCoV(sys.Store, metrics.CPI),
		}
		if sys.Samples.Total() > 0 {
			fa.BackupShare = float64(sys.Samples.Interrupt) / float64(sys.Samples.Total())
		}
		if iOver > 0 {
			fa.Normalized = sOver / iOver
		}
		if totalCPU > 0 {
			fa.BaseCostPct = iOver / totalCPU * 100
		}
		out.Apps = append(out.Apps, fa)
	}
	return out, nil
}

// sampleCoV is the pooled coefficient of variation of per-period metric
// values across all traces — "the captured request behavior variation".
func sampleCoV(store *trace.Store, m metrics.Metric) float64 {
	var vals, ws []float64
	for _, tr := range store.Traces {
		for _, p := range tr.Periods {
			if w := p.C.Weight(m); w > 0 {
				vals = append(vals, p.C.Value(m))
				ws = append(ws, w)
			}
		}
	}
	return stats.CoV(vals, ws)
}

// String renders the comparison.
func (r *Figure5Result) String() string {
	var rows [][]string
	for _, a := range r.Apps {
		rows = append(rows, []string{
			a.App,
			fmt.Sprintf("%d", a.InterruptSamples),
			fmt.Sprintf("%d", a.SyscallSamples),
			fmt.Sprintf("%.0f%%", a.BackupShare*100),
			fmt.Sprintf("%.2f", a.Normalized),
			fmt.Sprintf("%.0f%%", (1-a.Normalized)*100),
			fmt.Sprintf("%.2f%%", a.BaseCostPct),
			fmt.Sprintf("%.2f/%.2f", a.InterruptCoV, a.SyscallCoV),
		})
	}
	var b strings.Builder
	b.WriteString("Figure 5: syscall-triggered vs interrupt-based sampling overhead\n")
	b.WriteString(table(
		[]string{"app", "intr samples", "sys samples", "backup", "normalized", "saving", "base cost", "CoV i/s"},
		rows))
	return b.String()
}
