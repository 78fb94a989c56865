package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// AnomalyComparison holds an anomaly-vs-reference pattern comparison (the
// content of Figures 8 and 9): the three metric variation patterns for
// both requests plus the quantitative analysis.
type AnomalyComparison struct {
	App       string
	GroupName string
	BucketIns float64

	AnomalyCPI, ReferenceCPI         []float64
	AnomalyMissIns, ReferenceMissIns []float64
	AnomalyRefsIns, ReferenceRefsIns []float64
	Analysis                         anomaly.Analysis
	// CentroidDistance is the anomaly's pattern distance from the group
	// centroid (Figure 8's detection criterion).
	CentroidDistance float64
}

// Figure8Result reproduces Figure 8: an anomalous TPCH request (Q20)
// compared against the centroid of the group processing the same query.
type Figure8Result struct {
	Comparison AnomalyComparison
}

// Figure8 runs TPCH concurrently, groups requests by query, detects the
// most anomalous Q20 request by centroid distance, and analyzes it against
// the group centroid as the reference.
func Figure8(cfg Config) (*Figure8Result, error) {
	n := cfg.scaled(120, 30)
	res, err := runTracked(cfg, workload.NewTPCH(), 0, n, false)
	if err != nil {
		return nil, fmt.Errorf("figure8: %w", err)
	}
	m := core.NewModeler("tpch", res.Store.Traces)
	det := &anomaly.Detector{BucketIns: m.BucketIns, Measure: m.DTWPenalized()}

	// Prefer Q20 like the paper; fall back to the largest group.
	groups := res.Store.ByType()
	group := groups["Q20"]
	name := "Q20"
	if len(group) < 3 {
		// Pick the largest group, walking names in sorted order so ties
		// break identically on every run (map iteration order must never
		// reach a result).
		names := make([]string, 0, len(groups))
		for g := range groups { // maporder:ok sorted immediately below
			names = append(names, g)
		}
		sort.Strings(names)
		for _, g := range names {
			if trs := groups[g]; len(trs) > len(group) {
				group, name = trs, g
			}
		}
	}
	if len(group) < 3 {
		return nil, fmt.Errorf("figure8: no query group large enough (best %d)", len(group))
	}
	centroid, ranked := det.GroupAnomalies(group, metrics.CPI)
	// Anomalies of interest are the slow ones: prefer the farthest-from-
	// centroid request whose CPI exceeds the centroid's (adverse dynamic
	// effects), falling back to the farthest overall.
	anom := ranked[0]
	cCPI := centroid.MetricValue(metrics.CPI)
	for _, cand := range ranked {
		if cand.Trace.MetricValue(metrics.CPI) > cCPI {
			anom = cand
			break
		}
	}
	pair := anomaly.Pair{Anomaly: anom.Trace, Reference: centroid}
	cmp := AnomalyComparison{
		App:              "tpch",
		GroupName:        name,
		BucketIns:        m.BucketIns,
		AnomalyCPI:       anom.Trace.Resampled(metrics.CPI, m.BucketIns),
		ReferenceCPI:     centroid.Resampled(metrics.CPI, m.BucketIns),
		AnomalyMissIns:   anom.Trace.Resampled(metrics.L2MissesPerIns, m.BucketIns),
		ReferenceMissIns: centroid.Resampled(metrics.L2MissesPerIns, m.BucketIns),
		AnomalyRefsIns:   anom.Trace.Resampled(metrics.L2RefsPerIns, m.BucketIns),
		ReferenceRefsIns: centroid.Resampled(metrics.L2RefsPerIns, m.BucketIns),
		Analysis:         det.Analyze(pair),
		CentroidDistance: anom.Distance,
	}
	return &Figure8Result{Comparison: cmp}, nil
}

func (c AnomalyComparison) render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (group %s, bucket %.0f ins)\n", title, c.GroupName, c.BucketIns)
	fmt.Fprintf(&b, "anomaly CPI:   %s\n", summarize(c.AnomalyCPI))
	fmt.Fprintf(&b, "reference CPI: %s\n", summarize(c.ReferenceCPI))
	fmt.Fprintf(&b, "anomaly CPI excess: %.3f\n", c.Analysis.CPIExcess)
	fmt.Fprintf(&b, "CPI-vs-miss pattern correlation: %.3f\n", c.Analysis.MissCorrelation)
	fmt.Fprintf(&b, "instruction excess: %.3fx, L2 refs/ins excess: %.3fx\n",
		c.Analysis.InstructionExcess, c.Analysis.RefsExcess)
	return b.String()
}

// String summarizes the comparison.
func (r *Figure8Result) String() string {
	return "Figure 8: TPCH anomaly vs group centroid\n" +
		r.Comparison.render("TPCH per-query anomaly analysis")
}
