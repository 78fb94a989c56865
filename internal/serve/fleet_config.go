package serve

import (
	"fmt"
	"runtime"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// FleetConfig specifies a fleet-mode run. Start from DefaultFleetConfig.
type FleetConfig struct {
	// Stream is the fleet-wide arrival process.
	Stream workload.StreamConfig
	// Nodes is the fleet: one machine topology per node (at least one).
	Nodes []machine.Topology
	// Policy is the placement policy.
	Policy FleetPolicy

	// TickNs is the virtual tick length (default 1ms). Contention rates
	// refresh once per tick from head-of-queue snapshots.
	TickNs int64
	// QueueCap is each core's queue capacity; an arrival routed to a full
	// core is shed.
	QueueCap int
	// DegradeDepth is the core queue depth at which newly admitted
	// requests degrade to cached-template serving: a constant
	// CostDegradedNs drain instead of instruction execution (the
	// single-node engine's overload tier, per core).
	DegradeDepth int
	// CostDegradedNs is the constant virtual cost of draining one
	// degraded request.
	CostDegradedNs int64

	// TemplatesPerApp and MaxPatternLen size the behavior template
	// libraries (see the single-node engine).
	TemplatesPerApp int
	MaxPatternLen   int

	// WindowSize is each node's sliding window of completions feeding its
	// bank compaction; CompactTicks the per-node compaction interval;
	// BankK the compacted bank size.
	WindowSize   int
	CompactTicks int
	BankK        int
	// MergeEvery is how many per-node compaction rounds pass between
	// fleet-wide bank merges (0 disables merging).
	MergeEvery int
	// CalibrationQuantile and CalibrationHeadroom set each node's anomaly
	// threshold from its window scores.
	CalibrationQuantile float64
	CalibrationHeadroom float64
	// ScoreSampleEvery identifies every Nth completed request against the
	// node bank for anomaly flagging (1 = every request).
	ScoreSampleEvery int

	// ScaleHighWater, ScaleLowWater, and ScaleCooldownTicks tune the
	// FleetScaleOut policy (ignored otherwise). A package counts saturated
	// when its queued predicted-high requests per core reach ScaleHighWater;
	// the fleet activates another node when at least half its active
	// packages are saturated, and deactivates its newest node when the
	// fleet-wide queued-high count per active core falls to ScaleLowWater
	// and that node has drained. ScaleCooldownTicks separates consecutive
	// scaling actions. Zero values take the defaults (2, 0.25, 25).
	ScaleHighWater     float64
	ScaleLowWater      float64
	ScaleCooldownTicks int

	// Workers bounds the goroutines of the parallel package phase; ≤0
	// means GOMAXPROCS. Changes wall-clock time only, never results.
	Workers int
	// Obs, when non-nil, collects fleet counters. Results are identical
	// either way.
	Obs *obs.Collector
}

// DefaultFleet is the standard heterogeneous 16-core evaluation fleet: the
// paper's box, a slow 4-core node, and a fast 8-core node with bigger
// caches.
func DefaultFleet() []machine.Topology {
	fleet, err := machine.ParseFleet("pkg=2,2/pkg=4:0.85/pkg=4:1.15:8,4:1.15:8")
	if err != nil {
		panic(err)
	}
	return fleet
}

// DefaultFleetStream is the fleet arrival process: a webserver-heavy mix
// under diurnal-style modulation, one flash crowd, slow drift, and four
// behavior cohorts whose drift rates fan out.
func DefaultFleetStream(seed int64) workload.StreamConfig {
	return workload.StreamConfig{
		RatePerSec: 24_000,
		Apps: []workload.StreamApp{
			{Name: "webserver", Weight: 6},
			{Name: "tpcc", Weight: 2},
			{Name: "rubis", Weight: 2},
		},
		Periods: []workload.StreamPeriod{
			{PeriodNs: 2e9, Amplitude: 0.3},
			{PeriodNs: 13e9, Amplitude: 0.2, Phase: 0.25},
		},
		Bursts:       []workload.StreamBurst{{StartNs: 5e9, DurationNs: 1.5e9, Factor: 2}},
		DriftPerSec:  0.004,
		Cohorts:      4,
		CohortSpread: 0.75,
		Seed:         seed,
	}
}

// DefaultFleetConfig returns the standard fleet-mode configuration on
// DefaultFleet over DefaultFleetStream(seed).
func DefaultFleetConfig(seed int64) FleetConfig {
	return FleetConfig{
		Stream:              DefaultFleetStream(seed),
		Nodes:               DefaultFleet(),
		TickNs:              1e6,
		QueueCap:            256,
		DegradeDepth:        192,
		CostDegradedNs:      300,
		TemplatesPerApp:     24,
		MaxPatternLen:       256,
		WindowSize:          512,
		CompactTicks:        500,
		BankK:               16,
		MergeEvery:          4,
		CalibrationQuantile: 0.99,
		CalibrationHeadroom: 1.5,
		ScoreSampleEvery:    8,
		ScaleHighWater:      2,
		ScaleLowWater:       0.25,
		ScaleCooldownTicks:  25,
	}
}

// normalize fills defaults and validates, naming the offending field.
func (c FleetConfig) normalize() (FleetConfig, error) {
	if err := c.Stream.Validate(); err != nil {
		return c, err
	}
	if len(c.Nodes) == 0 {
		return c, fmt.Errorf("serve: FleetConfig.Nodes must have at least one node")
	}
	for i, t := range c.Nodes {
		if err := t.Validate(); err != nil {
			return c, fmt.Errorf("serve: FleetConfig.Nodes[%d]: %w", i, err)
		}
	}
	if _, ok := c.Policy.info(); !ok {
		return c, fmt.Errorf("serve: FleetConfig.Policy unknown: %d", c.Policy)
	}
	if c.ScaleHighWater <= 0 {
		c.ScaleHighWater = 2
	}
	if c.ScaleLowWater <= 0 {
		c.ScaleLowWater = 0.25
	}
	if c.ScaleCooldownTicks <= 0 {
		c.ScaleCooldownTicks = 25
	}
	if c.ScaleLowWater >= c.ScaleHighWater {
		return c, fmt.Errorf("serve: FleetConfig.ScaleLowWater %g must be below ScaleHighWater %g",
			c.ScaleLowWater, c.ScaleHighWater)
	}
	if err := c.shared().validateShared("FleetConfig."); err != nil {
		return c, err
	}
	if c.CostDegradedNs <= 0 {
		return c, fmt.Errorf("serve: FleetConfig.CostDegradedNs must be positive, got %d", c.CostDegradedNs)
	}
	if c.MergeEvery < 0 {
		return c, fmt.Errorf("serve: FleetConfig.MergeEvery must be non-negative, got %d", c.MergeEvery)
	}
	if c.ScoreSampleEvery <= 0 {
		c.ScoreSampleEvery = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// shared is the single-node Config holding the knobs the fleet shares with
// the engine: the stream, tick and queue sizes, template libraries, and
// window banks.
func (c FleetConfig) shared() Config {
	return Config{
		Stream:              c.Stream,
		TickNs:              c.TickNs,
		QueueCap:            c.QueueCap,
		DegradeDepth:        c.DegradeDepth,
		TemplatesPerApp:     c.TemplatesPerApp,
		MaxPatternLen:       c.MaxPatternLen,
		WindowSize:          c.WindowSize,
		CompactTicks:        c.CompactTicks,
		BankK:               c.BankK,
		CalibrationQuantile: c.CalibrationQuantile,
		CalibrationHeadroom: c.CalibrationHeadroom,
	}
}
