package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Figure2Request is one representative request's intra-request variation
// traces: CPI, L2 references per instruction, and L2 miss ratio, indexed by
// execution progress in instructions.
type Figure2Request struct {
	App  string
	Type string
	// BucketIns is the progress step of each series point.
	BucketIns float64
	CPI       []float64
	RefsPerIn []float64
	MissRatio []float64
	// TotalIns is the request's total instruction count.
	TotalIns uint64
	// CPICoV summarizes how strongly the request's behavior varies.
	CPICoV float64
}

// Figure2Result reproduces Figure 2: examples of behavior variation within
// a single request execution, one per application.
type Figure2Result struct {
	Requests []Figure2Request
}

// Figure2 runs a small concurrent load per application with the paper's
// fine-grained sampling and extracts a representative (longest, so the
// variation structure is visible) request per application.
func Figure2(cfg Config) (*Figure2Result, error) {
	out := &Figure2Result{}
	for _, app := range appSet() {
		n := cfg.scaled(24, 8)
		res, err := runTracked(cfg, app, 0, n, false)
		if err != nil {
			return nil, fmt.Errorf("figure2 %s: %w", app.Name(), err)
		}
		var pick *trace.Request
		for _, tr := range res.Store.Traces {
			if pick == nil || tr.Instructions() > pick.Instructions() {
				pick = tr
			}
		}
		bucket := core.BucketFor(app.Name())
		s := pick.InsSeries(metrics.CPI)
		out.Requests = append(out.Requests, Figure2Request{
			App:       app.Name(),
			Type:      pick.Type,
			BucketIns: bucket,
			CPI:       pick.Resampled(metrics.CPI, bucket),
			RefsPerIn: pick.Resampled(metrics.L2RefsPerIns, bucket),
			MissRatio: pick.Resampled(metrics.L2MissRatio, bucket),
			TotalIns:  pick.Instructions(),
			CPICoV:    s.CoV(),
		})
	}
	return out, nil
}

// String summarizes each representative request.
func (r *Figure2Result) String() string {
	var rows [][]string
	for _, q := range r.Requests {
		rows = append(rows, []string{
			q.App, q.Type,
			fmt.Sprintf("%.2fM", float64(q.TotalIns)/1e6),
			fmt.Sprintf("%d", len(q.CPI)),
			summarize(q.CPI),
			fmt.Sprintf("%.3f", q.CPICoV),
		})
	}
	var b strings.Builder
	b.WriteString("Figure 2: intra-request behavior variation examples\n")
	b.WriteString(table(
		[]string{"app", "request", "length", "points", "CPI over progress", "CPI CoV"},
		rows))
	return b.String()
}
