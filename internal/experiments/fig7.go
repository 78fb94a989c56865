package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/metrics"
)

// Figure7Measures names the five differencing measures in the paper's
// comparison order.
var Figure7Measures = []string{
	"levenshtein-syscalls",
	"average-CPI",
	"L1-CPI-variations",
	"DTW-CPI-variations",
	"DTW+asynchrony-penalty",
}

// Figure7App holds one application's classification quality per measure.
type Figure7App struct {
	App string
	// CPUTimeDivergence and PeakCPIDivergence map measure name to the
	// average divergence from centroid on the two request properties.
	CPUTimeDivergence map[string]float64
	PeakCPIDivergence map[string]float64
}

// Figure7Result reproduces Figure 7: request classification effectiveness
// under different request differencing measures, evaluated as cluster
// members' divergence from their centroids on (A) request CPU time and (B)
// request 90-percentile CPI.
type Figure7Result struct {
	Apps []Figure7App
	K    int
}

// levenshteinCap truncates system call sequences to their prefix on
// long-request applications (the paper's TPCH requests make thousands of
// calls; the prefix carries the type-identifying structure). The cap pins
// the published Figure 7 outputs. Cost does not need it: the bit-parallel
// kernel compares a 300-call pair in ⌈300/64⌉·300 = 1,500 block steps.
const levenshteinCap = 300

// Figure7 clusters each application's requests with k-medoids (k=10) under
// all five measures and scores classification quality.
func Figure7(cfg Config) (*Figure7Result, error) {
	out := &Figure7Result{K: 10}
	for _, app := range appSet() {
		n := cfg.modelingRequests(app.Name())
		res, err := runTracked(cfg, app, 0, n, true)
		if err != nil {
			return nil, fmt.Errorf("figure7 %s: %w", app.Name(), err)
		}
		traces := res.Store.Traces
		m := core.NewModeler(app.Name(), traces)

		cpiPatterns := make([][]float64, len(traces))
		syscalls := make([][]string, len(traces))
		averages := make([][]float64, len(traces))
		for i, tr := range traces {
			cpiPatterns[i] = tr.Resampled(metrics.CPI, m.BucketIns)
			names := tr.SyscallNames()
			if len(names) > levenshteinCap {
				names = names[:levenshteinCap]
			}
			syscalls[i] = names
			averages[i] = []float64{tr.MetricValue(metrics.CPI)}
		}

		// Precompute each measure's full pairwise matrix through the
		// parallel engine; k-medoids then shares the read-only matrices.
		opt := distance.MatrixOptions{Obs: cfg.Obs}
		symbols := distance.NewSymbolIndex(syscalls)
		dists := map[string]*distance.Matrix{
			"levenshtein-syscalls": distance.NewMatrix(len(traces), func(i, j int) float64 {
				return float64(symbols.Distance(i, j))
			}, opt),
			"average-CPI":            distance.NewMatrixFromSequences(averages, distance.AverageDiff{}, opt),
			"L1-CPI-variations":      distance.NewMatrixFromSequences(cpiPatterns, m.L1(), opt),
			"DTW-CPI-variations":     distance.NewMatrixFromSequences(cpiPatterns, m.DTW(), opt),
			"DTW+asynchrony-penalty": distance.NewMatrixFromSequences(cpiPatterns, m.DTWPenalized(), opt),
		}

		cpuTimes := make([]float64, len(traces))
		peaks := make([]float64, len(traces))
		for i, tr := range traces {
			cpuTimes[i] = float64(tr.CPUTime())
			peaks[i] = requestPeakCPI(tr)
		}

		fa := Figure7App{
			App:               app.Name(),
			CPUTimeDivergence: map[string]float64{},
			PeakCPIDivergence: map[string]float64{},
		}
		for _, name := range Figure7Measures {
			resCl := cluster.KMedoidsMatrix(dists[name], cluster.Config{
				K: out.K, Seed: cfg.Seed,
			})
			fa.CPUTimeDivergence[name] = cluster.Divergence(resCl, cpuTimes)
			fa.PeakCPIDivergence[name] = cluster.Divergence(resCl, peaks)
		}
		out.Apps = append(out.Apps, fa)
	}
	return out, nil
}

// Mean returns a measure's divergence averaged over applications.
func (r *Figure7Result) Mean(measure string, peak bool) float64 {
	var sum float64
	for _, a := range r.Apps {
		if peak {
			sum += a.PeakCPIDivergence[measure]
		} else {
			sum += a.CPUTimeDivergence[measure]
		}
	}
	if len(r.Apps) == 0 {
		return 0
	}
	return sum / float64(len(r.Apps))
}

// String renders both panels.
func (r *Figure7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: classification quality (divergence from centroid, lower is better)\n")
	render := func(title string, pick func(Figure7App) map[string]float64) {
		header := []string{"measure"}
		for _, a := range r.Apps {
			header = append(header, a.App)
		}
		var rows [][]string
		for _, mName := range Figure7Measures {
			row := []string{mName}
			for _, a := range r.Apps {
				row = append(row, fmt.Sprintf("%.1f%%", pick(a)[mName]*100))
			}
			rows = append(rows, row)
		}
		fmt.Fprintf(&b, "\n%s:\n", title)
		b.WriteString(table(header, rows))
	}
	render("(A) on request CPU time", func(a Figure7App) map[string]float64 { return a.CPUTimeDivergence })
	render("(B) on request 90-percentile CPI", func(a Figure7App) map[string]float64 { return a.PeakCPIDivergence })
	return b.String()
}
