// Result is the deterministic outcome of a serving run — plain exported
// data so the verification harness can canonicalize and fingerprint it.
// Wall-clock quantities (the identify-latency histogram) are deliberately
// excluded: every field below is a pure function of the Config.
package serve

import (
	"fmt"
	"strings"
)

// Result summarizes a serving run.
type Result struct {
	// Arrivals is the total stream arrivals ingested; Shed were refused at
	// full shard queues; Degraded were admitted in cached-matching mode.
	Arrivals uint64
	Shed     uint64
	Degraded uint64
	// Completed counts finished requests; CompletedDegraded the subset
	// resolved through the template cache.
	Completed         uint64
	CompletedDegraded uint64
	// EarlyPredictions/EarlyWrong are the half-pattern CPU-class
	// predictions and their error count (the paper's Figure 10, online).
	EarlyPredictions uint64
	EarlyWrong       uint64
	// Injected counts admitted requests carrying an injected anomaly;
	// Flagged the requests whose identification score exceeded the
	// calibrated threshold; FlaggedInjected their intersection.
	Injected        uint64
	Flagged         uint64
	FlaggedInjected uint64
	// ScoreSum is the sum of completion scores (distance per bucket) — a
	// high-sensitivity determinism witness.
	ScoreSum float64
	// Compactions and Recalibrations count bank rebuilds and threshold
	// calibrations.
	Compactions    uint64
	Recalibrations uint64
	// Ticks and VirtualNs measure the run on the virtual clock.
	Ticks     uint64
	VirtualNs int64
	// MaxShardDepth is the deepest any shard queue got (backpressure
	// witness); Queued is the in-flight count at snapshot time.
	MaxShardDepth int
	Queued        int
	// BankEntries, Threshold, and WindowFill snapshot the adaptive state.
	BankEntries int
	Threshold   float64
	WindowFill  int
}

// String renders the run summary as a fixed-width table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "service-mode run: %d ticks, %.3fs virtual\n", r.Ticks, float64(r.VirtualNs)/1e9)
	row := func(label, format string, args ...any) {
		fmt.Fprintf(&b, "  %-22s "+format+"\n", append([]any{label}, args...)...)
	}
	row("arrivals", "%d (shed %d, degraded %d)", r.Arrivals, r.Shed, r.Degraded)
	row("completed", "%d (degraded %d, in flight %d)", r.Completed, r.CompletedDegraded, r.Queued)
	if r.EarlyPredictions > 0 {
		row("early predictions", "%d (%.2f%% wrong)", r.EarlyPredictions,
			100*float64(r.EarlyWrong)/float64(r.EarlyPredictions))
	}
	row("anomalies", "injected %d, flagged %d (hits %d)", r.Injected, r.Flagged, r.FlaggedInjected)
	row("bank", "%d entries, %d compactions, %d recalibrations", r.BankEntries, r.Compactions, r.Recalibrations)
	row("threshold", "%.6g (window %d)", r.Threshold, r.WindowFill)
	row("backpressure", "max shard depth %d", r.MaxShardDepth)
	return b.String()
}

// NodeResult is one node's deterministic outcome.
type NodeResult struct {
	Node     int
	Topology string
	Cores    int

	Completed       uint64
	Shed            uint64
	Degraded        uint64
	Flagged         uint64
	FlaggedInjected uint64
	ScoreSum        float64
	Compactions     uint64
	Recalibrations  uint64

	Cycles       float64
	Instructions float64
	CPI          float64
	P99Ns        float64

	MaxQueueDepth int
	BankEntries   int
	Threshold     float64
}

// FleetResult is the whole fleet's deterministic outcome.
type FleetResult struct {
	Policy string

	Arrivals        uint64
	Shed            uint64
	Degraded        uint64
	Injected        uint64
	Completed       uint64
	Flagged         uint64
	FlaggedInjected uint64
	ScoreSum        float64

	Cycles       float64
	Instructions float64
	CPI          float64
	P99Ns        float64

	CompactionRounds uint64
	Merges           uint64
	Ticks            uint64
	VirtualNs        int64
	Queued           int

	// ScaleUps and ScaleDowns count scale-out policy actions; ActiveNodes
	// is the final active-set size (always the full fleet for the other
	// placement policies).
	ScaleUps    uint64
	ScaleDowns  uint64
	ActiveNodes int

	Nodes []NodeResult
}

// String renders the fleet summary.
func (r FleetResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet run (%s): %d ticks, %.3fs virtual\n", r.Policy, r.Ticks, float64(r.VirtualNs)/1e9)
	fmt.Fprintf(&b, "  arrivals %d (shed %d, degraded %d), completed %d, in flight %d\n", r.Arrivals, r.Shed, r.Degraded, r.Completed, r.Queued)
	fmt.Fprintf(&b, "  fleet CPI %.4f, p99 %.3fms\n", r.CPI, r.P99Ns/1e6)
	fmt.Fprintf(&b, "  anomalies: injected %d, flagged %d (hits %d)\n", r.Injected, r.Flagged, r.FlaggedInjected)
	fmt.Fprintf(&b, "  banks: %d compaction rounds, %d merges\n", r.CompactionRounds, r.Merges)
	if r.Policy == FleetScaleOut.String() {
		fmt.Fprintf(&b, "  scale: %d ups, %d downs, %d/%d nodes active\n", r.ScaleUps, r.ScaleDowns, r.ActiveNodes, len(r.Nodes))
	}
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "  node%d %-28s %2d cores: completed %8d  CPI %.4f  p99 %8.3fms  depth %3d  shed %d  degraded %d  flagged %d\n",
			n.Node, n.Topology, n.Cores, n.Completed, n.CPI, n.P99Ns/1e6, n.MaxQueueDepth, n.Shed, n.Degraded, n.Flagged)
	}
	return b.String()
}
