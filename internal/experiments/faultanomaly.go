package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FaultAnomalyResult closes the loop the paper's Section 6 evaluation
// could not: anomalies with known ground truth. A labeled fault schedule
// perturbs a distributed RUBiS run — node slowdowns, hop latency spikes
// and drops, per-tier cache-pollution bursts — and the Section 4.3 group
// anomaly detector is scored against the injected pollution bursts, the
// one fault class that carries the paper's CPI-visible contention
// signature. The same schedule also exercises the driver's robustness: the
// run repeats with hop retries/hedging off and on, comparing worst-case
// latency.
type FaultAnomalyResult struct {
	Requests int
	// Scheduled is the number of fault windows; Impacts the ground-truth
	// fault applications recorded during the detection (retries-on) run.
	Scheduled, Impacts int
	// Truth is the number of requests hit by a pollution burst; Detected
	// the number the detector flagged.
	Truth, Detected int
	// Eval scores the detector against the injected ground truth.
	Eval fault.Eval
	// P99OffNs/P99OnNs and MaxOffNs/MaxOnNs compare worst-case latency
	// with retries+hedging disabled vs enabled, under identical fault
	// schedules.
	P99OffNs, P99OnNs float64
	MaxOffNs, MaxOnNs float64
	// Retries, Hedges, and Timeouts count robustness events in the
	// retries-on run; Drops the hop messages lost to fault windows in it.
	Retries, Hedges, Timeouts, Drops int
}

// faultClusterConfig is the shared cluster shape of all three runs: RUBiS
// spread over three nodes, one per tier.
func faultClusterConfig(cfg Config) distributed.Config {
	return distributed.Config{
		Nodes:     3,
		Sampling:  sampling.Config{Mode: sampling.Interrupt, Period: sim.Millisecond, Compensate: true},
		Placement: []int{0, 1, 2},
		Network:   distributed.NetworkConfig{HopLatency: 200 * sim.Microsecond},
		Seed:      cfg.Seed,
	}
}

// runFaultCluster executes one RUBiS run, optionally fault-injected.
func runFaultCluster(cfg Config, dcfg distributed.Config, requests int, sched *fault.Schedule) ([]*distributed.Trace, error) {
	c, err := distributed.NewCluster(dcfg)
	if err != nil {
		return nil, err
	}
	c.SetObserver(cfg.Obs)
	if sched != nil {
		c.SetFaults(sched)
	}
	traces := distributed.NewDriver(c, workload.NewRUBiS(), 6, requests, cfg.Seed).Run()
	if len(traces) != requests {
		return nil, fmt.Errorf("cluster run stalled at %d/%d requests", len(traces), requests)
	}
	return traces, nil
}

// mergeSegments flattens a distributed trace's per-node segments into one
// request trace, in execution order, for the single-request anomaly
// detector.
func mergeSegments(t *distributed.Trace) *trace.Request {
	m := &trace.Request{ID: t.ID, App: t.App, Type: t.Type, Start: t.Start, End: t.End}
	for _, seg := range t.Segments {
		m.Periods = append(m.Periods, seg.Trace.Periods...)
	}
	return m
}

// FaultAnomaly injects a labeled fault schedule into a distributed RUBiS
// run, scores the Section 6 anomaly detector against the injected ground
// truth, and reports the latency cost of faults with the robustness
// mechanisms off versus on.
func FaultAnomaly(cfg Config) (*FaultAnomalyResult, error) {
	requests := cfg.scaled(120, 36)
	dcfg := faultClusterConfig(cfg)

	// Clean run: sizes the fault horizon from the undisturbed run length.
	clean, err := runFaultCluster(cfg, dcfg, requests, nil)
	if err != nil {
		return nil, fmt.Errorf("faultanomaly: clean run: %w", err)
	}
	var horizon sim.Time
	var cleanLat []float64
	for _, tr := range clean {
		if tr.End > horizon {
			horizon = tr.End
		}
		cleanLat = append(cleanLat, float64(tr.Latency()))
	}
	fcfg := fault.Config{
		Seed:    cfg.Seed,
		Horizon: horizon,
		Nodes:   dcfg.Nodes,
		Tiers:   3,
		// A modest mixed schedule: every fault class present, pollution
		// bursts wide enough to label a detectable anomaly population.
		Slowdowns: 1,
		HopSpikes: 1,
		Drops:     2,
		Bursts:    2,
		MaxWindow: horizon / 4,
	}

	// Fault run with the robustness mechanisms off: dropped hops pay the
	// full lower-layer retransmission timeout.
	schedOff, err := fault.NewSchedule(fcfg)
	if err != nil {
		return nil, fmt.Errorf("faultanomaly: %w", err)
	}
	off, err := runFaultCluster(cfg, dcfg, requests, schedOff)
	if err != nil {
		return nil, fmt.Errorf("faultanomaly: retries-off run: %w", err)
	}

	// Identical schedule, retries and hedging on.
	schedOn, err := fault.NewSchedule(fcfg)
	if err != nil {
		return nil, fmt.Errorf("faultanomaly: %w", err)
	}
	on := dcfg
	on.Retry = distributed.RetryConfig{
		Enabled:    true,
		Hedge:      true,
		HedgeAfter: sim.Time(stats.Mean(cleanLat)),
	}
	onTraces, err := runFaultCluster(cfg, on, requests, schedOn)
	if err != nil {
		return nil, fmt.Errorf("faultanomaly: retries-on run: %w", err)
	}

	res := &FaultAnomalyResult{
		Requests:  requests,
		Scheduled: len(schedOn.Faults()),
		Impacts:   len(schedOn.Impacts()),
	}
	var offLat, onLat []float64
	for _, tr := range off {
		offLat = append(offLat, float64(tr.Latency()))
	}
	for _, tr := range onTraces {
		onLat = append(onLat, float64(tr.Latency()))
		res.Retries += tr.Retries
		res.Hedges += tr.Hedges
		res.Timeouts += tr.Timeouts
	}
	for _, im := range schedOn.Impacts() {
		if im.Kind == fault.HopDrop {
			res.Drops++
		}
	}
	res.P99OffNs = stats.Percentile(offLat, 99)
	res.P99OnNs = stats.Percentile(onLat, 99)
	res.MaxOffNs = stats.Max(offLat)
	res.MaxOnNs = stats.Max(onLat)

	// Detection over the retries-on run: the Section 4.3 group detector on
	// CPI patterns, which the pollution bursts (inflated misses at
	// unchanged reference rates) light up. The expected similarity is
	// calibrated per request type on the clean run — each type's maximum
	// centroid distance under undisturbed execution, with headroom — so a
	// widely-polluted group cannot inflate its own threshold.
	groupByType := func(traces []*distributed.Trace) (map[string][]*trace.Request, []*trace.Request) {
		groups := map[string][]*trace.Request{}
		merged := make([]*trace.Request, len(traces))
		for i, tr := range traces {
			merged[i] = mergeSegments(tr)
			groups[tr.Type] = append(groups[tr.Type], merged[i])
		}
		return groups, merged
	}
	cleanGroups, cleanMerged := groupByType(clean)
	dirtyGroups, _ := groupByType(onTraces)
	modeler := core.NewModeler("rubis", cleanMerged)
	det := &anomaly.Detector{BucketIns: modeler.BucketIns, Measure: modeler.DTWPenalized()}
	thresholds := map[string]float64{}
	for typ, group := range cleanGroups { // maporder:ok per-key threshold writes, order-free
		if len(group) < 5 {
			continue
		}
		_, ranked := det.GroupAnomalies(group, metrics.CPI)
		max := 0.0
		for _, s := range ranked {
			if s.Distance > max {
				max = s.Distance
			}
		}
		if max > 0 {
			thresholds[typ] = max * 1.2
		}
	}
	types := make([]string, 0, len(dirtyGroups))
	for typ := range dirtyGroups { // maporder:ok sorted immediately below
		types = append(types, typ)
	}
	sort.Strings(types)
	predicted := map[uint64]bool{}
	for _, typ := range types {
		threshold, ok := thresholds[typ]
		if !ok {
			continue
		}
		_, ranked := det.GroupAnomalies(dirtyGroups[typ], metrics.CPI)
		for _, s := range ranked {
			if s.Distance > threshold {
				predicted[s.Trace.ID] = true
			}
		}
	}
	truth := schedOn.ImpactedIDs(fault.PollutionBurst)
	res.Truth = len(truth)
	res.Detected = len(predicted)
	res.Eval = fault.Evaluate(predicted, truth)
	return res, nil
}

// String renders the report.
func (r *FaultAnomalyResult) String() string {
	var b strings.Builder
	b.WriteString("Fault injection: detector scored against injected ground truth\n")
	fmt.Fprintf(&b, "%d requests, %d scheduled fault windows, %d recorded impacts (%d hop drops)\n",
		r.Requests, r.Scheduled, r.Impacts, r.Drops)
	fmt.Fprintf(&b, "pollution-burst ground truth: %d requests; detector flagged %d\n",
		r.Truth, r.Detected)
	fmt.Fprintf(&b, "detection: %s\n", r.Eval)
	b.WriteString(table(
		[]string{"robustness", "p99 latency", "max latency", "retries", "hedges", "timeouts"},
		[][]string{
			{"off", fmt.Sprintf("%.2fms", r.P99OffNs/1e6), fmt.Sprintf("%.2fms", r.MaxOffNs/1e6), "0", "0", "0"},
			{"on", fmt.Sprintf("%.2fms", r.P99OnNs/1e6), fmt.Sprintf("%.2fms", r.MaxOnNs/1e6),
				fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.Hedges), fmt.Sprintf("%d", r.Timeouts)},
		}))
	if r.P99OnNs < r.P99OffNs {
		fmt.Fprintf(&b, "retries+hedging cut p99 latency %.2fx under the same fault schedule\n",
			r.P99OffNs/r.P99OnNs)
	}
	return b.String()
}
