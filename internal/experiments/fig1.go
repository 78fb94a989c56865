package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Figure1App holds one application's per-request CPI distributions under
// 1-core serial and 4-core concurrent execution.
type Figure1App struct {
	App string
	// Serial and Concurrent are the per-request CPI populations.
	Serial, Concurrent []float64
	// SerialP90 and ConcurrentP90 are the marked 90-percentile values.
	SerialP90, ConcurrentP90 float64
	// SerialHist and ConcurrentHist are probability histograms on a shared
	// axis (per application, like the paper's column-shared axes).
	BinLo, BinWidth            float64
	SerialHist, ConcurrentHist []float64
}

// Figure1Result reproduces Figure 1: multicore performance obfuscation in
// terms of request CPI distributions.
type Figure1Result struct {
	Apps []Figure1App
}

// Figure1 runs each application serially on one core and concurrently on
// four cores and reports the per-request CPI distributions.
func Figure1(cfg Config) (*Figure1Result, error) {
	out := &Figure1Result{}
	for _, app := range appSet() {
		n := cfg.modelingRequests(app.Name())
		serial, err := runTracked(cfg, app, 1, n, false)
		if err != nil {
			return nil, fmt.Errorf("figure1 %s serial: %w", app.Name(), err)
		}
		conc, err := runTracked(cfg, app, 0, n, false)
		if err != nil {
			return nil, fmt.Errorf("figure1 %s concurrent: %w", app.Name(), err)
		}
		s := serial.Store.MetricValues(metrics.CPI)
		c := conc.Store.MetricValues(metrics.CPI)
		lo := 1.0
		hi := stats.Max(append(append([]float64{}, s...), c...))
		if hi <= lo {
			hi = lo + 1
		}
		const bins = 40
		width := (hi - lo) / bins
		sh := stats.NewHistogram(s, lo, width, bins)
		ch := stats.NewHistogram(c, lo, width, bins)
		out.Apps = append(out.Apps, Figure1App{
			App:            app.Name(),
			Serial:         s,
			Concurrent:     c,
			SerialP90:      stats.Percentile(s, 90),
			ConcurrentP90:  stats.Percentile(c, 90),
			BinLo:          lo,
			BinWidth:       width,
			SerialHist:     sh.Prob(),
			ConcurrentHist: ch.Prob(),
		})
	}
	return out, nil
}

// String renders the paper-style summary rows.
func (r *Figure1Result) String() string {
	var rows [][]string
	for _, a := range r.Apps {
		rows = append(rows, []string{
			a.App,
			fmt.Sprintf("%.2f", stats.Median(a.Serial)),
			fmt.Sprintf("%.2f", a.SerialP90),
			fmt.Sprintf("%.2f", stats.Median(a.Concurrent)),
			fmt.Sprintf("%.2f", a.ConcurrentP90),
			fmt.Sprintf("%.2fx", a.ConcurrentP90/a.SerialP90),
		})
	}
	var b strings.Builder
	b.WriteString("Figure 1: request CPI distributions, 1-core serial vs 4-core concurrent\n")
	b.WriteString(table(
		[]string{"app", "1-core p50", "1-core p90", "4-core p50", "4-core p90", "p90 ratio"},
		rows))
	return b.String()
}
