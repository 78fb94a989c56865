package experiments

import (
	"fmt"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Figure9Result reproduces Figure 9: an anomalous WeBWorK request compared
// against a reference processing the same problem (the paper's example
// uses problem identifier 954), found through multi-metric differencing —
// similar L2-references-per-instruction patterns, divergent CPI.
type Figure9Result struct {
	Comparison AnomalyComparison
	Problem    int
}

// figure9Problem is the paper's example problem identifier.
const figure9Problem = 954

// Figure9 runs a WeBWorK load restricted to a handful of problems (so the
// target problem recurs), then searches for the strongest anomaly-reference
// pair among the target problem's requests.
func Figure9(cfg Config) (*Figure9Result, error) {
	app := workload.NewWeBWorKProblems(figure9Problem, 117, 1501, 2222, 2718)
	n := cfg.scaled(40, 15)
	res, err := runTracked(cfg, app, 0, n, false)
	if err != nil {
		return nil, fmt.Errorf("figure9: %w", err)
	}
	m := core.NewModeler("webwork", res.Store.Traces)
	det := &anomaly.Detector{BucketIns: m.BucketIns, Measure: m.DTWPenalized()}

	group := res.Store.ByType()[fmt.Sprintf("problem-%d", figure9Problem)]
	if len(group) < 2 {
		return nil, fmt.Errorf("figure9: only %d requests for problem %d", len(group), figure9Problem)
	}
	pairs := det.FindPairs(group, 1)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("figure9: no anomaly-reference pair found")
	}
	p := pairs[0]
	cmp := AnomalyComparison{
		App:              "webwork",
		GroupName:        fmt.Sprintf("problem-%d", figure9Problem),
		BucketIns:        m.BucketIns,
		AnomalyCPI:       p.Anomaly.Resampled(metrics.CPI, m.BucketIns),
		ReferenceCPI:     p.Reference.Resampled(metrics.CPI, m.BucketIns),
		AnomalyMissIns:   p.Anomaly.Resampled(metrics.L2MissesPerIns, m.BucketIns),
		ReferenceMissIns: p.Reference.Resampled(metrics.L2MissesPerIns, m.BucketIns),
		AnomalyRefsIns:   p.Anomaly.Resampled(metrics.L2RefsPerIns, m.BucketIns),
		ReferenceRefsIns: p.Reference.Resampled(metrics.L2RefsPerIns, m.BucketIns),
		Analysis:         det.Analyze(p),
		CentroidDistance: p.CPIDistance,
	}
	return &Figure9Result{Comparison: cmp, Problem: figure9Problem}, nil
}

// String summarizes the comparison.
func (r *Figure9Result) String() string {
	return fmt.Sprintf("Figure 9: WeBWorK anomaly vs reference (problem %d)\n", r.Problem) +
		r.Comparison.render("WeBWorK same-problem anomaly analysis")
}
