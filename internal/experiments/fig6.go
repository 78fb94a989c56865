package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Figure6Result reproduces Figure 6: two inherently similar TPCC requests
// whose executions drift apart slightly, the case where the L1 distance
// over-estimates and dynamic time warping (with asynchrony penalty)
// measures the true similarity.
type Figure6Result struct {
	// RequestA and RequestB are the two requests' CPI patterns over fixed
	// instruction buckets.
	RequestA, RequestB []float64
	BucketIns          float64
	// L1Distance over-estimates due to the shift; DTWDistance (asynchrony
	// penalized) stays small.
	L1Distance, DTWDistance float64
	// Ratio is L1Distance / DTWDistance — the over-estimation factor.
	Ratio float64
}

// Figure6 runs TPCC concurrently and selects the "new order" pair with the
// largest L1-to-penalized-DTW distance ratio: inherently similar requests
// whose progress drifted apart under dynamic execution conditions.
func Figure6(cfg Config) (*Figure6Result, error) {
	n := cfg.scaled(250, 40)
	res, err := runTracked(cfg, workload.NewTPCC(), 0, n, false)
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	newOrders := res.Store.ByType()["new order"]
	if len(newOrders) < 2 {
		return nil, fmt.Errorf("figure6: only %d new-order requests traced", len(newOrders))
	}
	m := core.NewModeler("tpcc", res.Store.Traces)
	l1 := m.L1()
	dtw := m.DTWPenalized()

	patterns := make([][]float64, len(newOrders))
	for i, tr := range newOrders {
		patterns[i] = tr.Resampled(metrics.CPI, m.BucketIns)
	}
	// Both measures' pairwise matrices fill in parallel; the ratio scan
	// then reads precomputed cells.
	dtwM := distance.NewMatrixFromSequences(patterns, dtw, distance.MatrixOptions{Obs: cfg.Obs})
	l1M := distance.NewMatrixFromSequences(patterns, l1, distance.MatrixOptions{Obs: cfg.Obs})
	bestI, bestJ, bestRatio := -1, -1, 0.0
	var bestL1, bestDTW float64
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns); j++ {
			dv := dtwM.At(i, j)
			lv := l1M.At(i, j)
			if dv <= 0 {
				continue
			}
			if ratio := lv / dv; ratio > bestRatio {
				bestRatio, bestI, bestJ = ratio, i, j
				bestL1, bestDTW = lv, dv
			}
		}
	}
	if bestI < 0 {
		return nil, fmt.Errorf("figure6: no drifting pair found")
	}
	return &Figure6Result{
		RequestA:    patterns[bestI],
		RequestB:    patterns[bestJ],
		BucketIns:   m.BucketIns,
		L1Distance:  bestL1,
		DTWDistance: bestDTW,
		Ratio:       bestRatio,
	}, nil
}

// String summarizes the drift example.
func (r *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: two similar TPCC new-order requests drifting apart\n")
	fmt.Fprintf(&b, "pattern lengths: %d vs %d buckets of %.0f instructions\n",
		len(r.RequestA), len(r.RequestB), r.BucketIns)
	fmt.Fprintf(&b, "L1 distance:  %.3f (over-estimates under drift)\n", r.L1Distance)
	fmt.Fprintf(&b, "DTW distance: %.3f (asynchrony-penalized)\n", r.DTWDistance)
	fmt.Fprintf(&b, "over-estimation factor: %.2fx\n", r.Ratio)
	return b.String()
}
