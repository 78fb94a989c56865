package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Figure3App holds one application's captured coefficient of variation per
// metric, with and without intra-request variations.
type Figure3App struct {
	App string
	// InterOnly treats each request as one uniform period (Equation 1 over
	// whole-request values).
	InterOnly map[metrics.Metric]float64
	// WithIntra pools every sampled period of every request.
	WithIntra map[metrics.Metric]float64
}

// Figure3Result reproduces Figure 3: captured request behavior variations
// on CPU cycles per instruction, L2 references per instruction, and L2
// misses per reference.
type Figure3Result struct {
	Apps    []Figure3App
	Metrics []metrics.Metric
}

// Figure3 runs each application concurrently with the paper's per-app
// sampling frequency and computes both variation levels.
func Figure3(cfg Config) (*Figure3Result, error) {
	ms := []metrics.Metric{metrics.CPI, metrics.L2RefsPerIns, metrics.L2MissRatio}
	out := &Figure3Result{Metrics: ms}
	for _, app := range appSet() {
		n := cfg.modelingRequests(app.Name())
		res, err := runTracked(cfg, app, 0, n, false)
		if err != nil {
			return nil, fmt.Errorf("figure3 %s: %w", app.Name(), err)
		}
		fa := Figure3App{
			App:       app.Name(),
			InterOnly: map[metrics.Metric]float64{},
			WithIntra: map[metrics.Metric]float64{},
		}
		for _, m := range ms {
			var interVals, interW []float64
			var intraVals, intraW []float64
			for _, tr := range res.Store.Traces {
				tot := tr.Totals()
				if w := tot.Weight(m); w > 0 {
					interVals = append(interVals, tot.Value(m))
					interW = append(interW, w)
				}
				for _, p := range tr.Periods {
					if w := p.C.Weight(m); w > 0 {
						intraVals = append(intraVals, p.C.Value(m))
						intraW = append(intraW, w)
					}
				}
			}
			fa.InterOnly[m] = stats.CoV(interVals, interW)
			fa.WithIntra[m] = stats.CoV(intraVals, intraW)
		}
		out.Apps = append(out.Apps, fa)
	}
	return out, nil
}

// String renders per-metric comparison rows.
func (r *Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: captured behavior variations (coefficient of variation)\n")
	for _, m := range r.Metrics {
		var rows [][]string
		for _, a := range r.Apps {
			inter, intra := a.InterOnly[m], a.WithIntra[m]
			gain := 0.0
			if inter > 0 {
				gain = intra / inter
			}
			rows = append(rows, []string{
				a.App,
				fmt.Sprintf("%.3f", inter),
				fmt.Sprintf("%.3f", intra),
				fmt.Sprintf("%.2fx", gain),
			})
		}
		fmt.Fprintf(&b, "\n%s:\n", m)
		b.WriteString(table([]string{"app", "inter-request only", "+intra-request", "ratio"}, rows))
	}
	return b.String()
}
