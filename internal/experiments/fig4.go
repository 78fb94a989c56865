package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Figure4App holds one application's cumulative probability that, from an
// arbitrary instant of request execution, the next system call occurs
// within each distance.
type Figure4App struct {
	App string
	// TimePointsUs are the evaluated time distances in microseconds.
	TimePointsUs []float64
	TimeCDF      []float64
	// InsPointsK are the evaluated instruction distances in thousands.
	InsPointsK []float64
	InsCDF     []float64
}

// Figure4Result reproduces Figure 4: the distribution of next-system-call
// distances in time and instruction count.
type Figure4Result struct {
	Apps []Figure4App
}

// figure4Points is the paper's logarithmic X axis: 4, 16, 64, 256, 1K, 4K,
// 16K (microseconds or thousand instructions).
var figure4Points = []float64{4, 16, 64, 256, 1024, 4096, 16384}

// Figure4 computes, from traced system call gaps, the probability that the
// next system call falls within each distance of an arbitrary instant:
// with gap lengths g_i, P(D) = Σ min(g_i, D) / Σ g_i (an instant lands in a
// gap with probability proportional to the gap's length).
func Figure4(cfg Config) (*Figure4Result, error) {
	out := &Figure4Result{}
	for _, app := range appSet() {
		n := cfg.modelingRequests(app.Name())
		res, err := runTracked(cfg, app, 0, n, true)
		if err != nil {
			return nil, fmt.Errorf("figure4 %s: %w", app.Name(), err)
		}
		var insGaps, timeGaps []float64
		for _, tr := range res.Store.Traces {
			ig, tg := tr.SyscallGaps()
			insGaps = append(insGaps, ig...)
			for _, t := range tg {
				timeGaps = append(timeGaps, float64(t))
			}
		}
		fa := Figure4App{App: app.Name()}
		for _, p := range figure4Points {
			fa.TimePointsUs = append(fa.TimePointsUs, p)
			fa.TimeCDF = append(fa.TimeCDF, gapCDF(timeGaps, p*float64(sim.Microsecond)))
			fa.InsPointsK = append(fa.InsPointsK, p)
			fa.InsCDF = append(fa.InsCDF, gapCDF(insGaps, p*1000))
		}
		out.Apps = append(out.Apps, fa)
	}
	return out, nil
}

// gapCDF is P(next syscall within d of an arbitrary instant) over gaps.
func gapCDF(gaps []float64, d float64) float64 {
	var within, total float64
	for _, g := range gaps {
		if g <= 0 {
			continue
		}
		total += g
		if g <= d {
			within += g
		} else {
			within += d
		}
	}
	if total == 0 {
		return 0
	}
	return within / total
}

// At returns the time-CDF value at the given microsecond distance, for
// shape assertions.
func (a Figure4App) At(us float64) float64 {
	for i, p := range a.TimePointsUs {
		if p == us {
			return a.TimeCDF[i]
		}
	}
	return 0
}

// String renders both CDFs.
func (r *Figure4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: cumulative probability of next system call distance\n")
	header := []string{"app"}
	for _, p := range figure4Points {
		header = append(header, fmt.Sprintf("%gus", p))
	}
	var rows [][]string
	for _, a := range r.Apps {
		row := []string{a.App}
		for _, v := range a.TimeCDF {
			row = append(row, fmt.Sprintf("%.0f%%", v*100))
		}
		rows = append(rows, row)
	}
	b.WriteString("\n(A) distance in time:\n")
	b.WriteString(table(header, rows))

	header = []string{"app"}
	for _, p := range figure4Points {
		header = append(header, fmt.Sprintf("%gK ins", p))
	}
	rows = nil
	for _, a := range r.Apps {
		row := []string{a.App}
		for _, v := range a.InsCDF {
			row = append(row, fmt.Sprintf("%.0f%%", v*100))
		}
		rows = append(rows, row)
	}
	b.WriteString("\n(B) distance in instruction count:\n")
	b.WriteString(table(header, rows))
	return b.String()
}
