// Fleet mode: the serving pipeline sharded across a simulated fleet of
// machines. One deterministic stream feeds every node; a placement policy
// (round-robin or contention-easing) routes each arrival to a core queue;
// cores execute head-of-queue requests under the paper's shared-cache
// contention model, evaluated per package from tick-start snapshots; each
// node keeps its own sliding window and compacted signature bank, and the
// fleet periodically merges the per-node banks into one global bank that
// every node adopts.
//
// Determinism mirrors the single-node engine: ingest, rate snapshots, and
// all cross-unit aggregation run serially in (node, package) order; the
// parallel phase executes packages whose work is a pure function of their
// own queues plus the serial snapshot, so worker scheduling cannot change
// results. Latency histograms use fixed log buckets with commutative
// atomic counts, so their quantiles are order-independent too.
//
// The fleet is laid out over files by stage: fleet_config.go (FleetConfig
// and its defaults), fleet_place.go (ingest, placement, scale-out),
// fleet_exec.go (rate snapshots, package execution, aggregation), and
// fleet_bank.go (per-node compaction and fleet-wide merges over the shared
// windowBank).
package serve

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// fleetReq is one queued request on a core.
type fleetReq struct {
	id        uint64
	arrivalNs int64
	remIns    float64 // instructions left to execute
	drift     float64
	cpuNs     float64 // solo CPU estimate (classification + window record)
	app       int32
	tmpl      int32
	cohort    int32
	anom      bool
	predHigh  bool
	degraded  bool
}

// fleetCore is one core's FIFO queue plus its tick-rate snapshot.
type fleetCore struct {
	q, qNext []fleetReq
	scale    float64 // static topology frequency scale
	// Tick-start snapshot (serial phase): effective CPI of the occupant
	// set and the resulting instruction rate. Zero insPerNs means idle.
	cpi      float64
	insPerNs float64
}

// pkgTally is one package's per-tick outcome, merged serially.
type pkgTally struct {
	completed       uint64
	flagged         uint64
	flaggedInjected uint64
	scoreSum        float64
	cycles, ins     float64 // executed work, for CPI accounting
	highDone        int     // predicted-high completions (queuedHigh drain)
}

// fleetPkg is one package of one node: the unit of parallel execution.
// During the parallel phase its owning worker touches only this struct,
// its cores' queues, and the node's read-only bank.
type fleetPkg struct {
	node, idx  int
	cores      []int // node-local core indices
	cacheCfg   cache.Config
	queuedHigh int // predicted-high requests queued here (serial ingest)

	tally  pkgTally
	winBuf []winRec
	patBuf []float64 // pattern scratch for sampled completion scoring

	// Rate-snapshot scratch.
	miss      []float64
	demands   []*cache.Demand
	demandBuf []cache.Demand
	_         [64]byte
}

// fleetNode is one machine of the fleet.
type fleetNode struct {
	topo  machine.Topology
	clock float64
	cores []fleetCore
	pkgs  []int // indices into Fleet.pkgs

	// wb is the node's sliding window and compacted bank. The parallel
	// phase only reads its bank and threshold; everything else runs in the
	// serial phase.
	wb windowBank

	hist *obs.Histogram
	res  NodeResult
}

// Fleet is a running fleet-mode pipeline. Methods are not safe for
// concurrent use; the fleet parallelizes internally.
type Fleet struct {
	cfg    FleetConfig
	stream *workload.Stream
	tmpl   [][]template
	nodes  []*fleetNode
	pkgs   []*fleetPkg  // all packages, node order — the parallel work units
	penCfg cache.Config // bandwidth-penalty knobs (machine defaults)

	// fleetThresholds classifies predicted high usage at admission, one
	// threshold per arrival cohort (index 0 when cohorts are disabled).
	// Every entry starts at the template median; at each merge the
	// thresholds refresh from per-cohort medians of the fleet's window
	// records, so a cohort whose drift inflates its costs is judged
	// against its own population rather than the fleet-wide one.
	fleetThresholds []float64
	cohortCPUs      [][]float64 // per-cohort merge scratch

	pending     workload.Arrival
	havePending bool
	nextID      uint64
	rrSeq       uint64
	tick        uint64
	nowNs       int64

	// active is the number of routable nodes (a prefix of nodes, in config
	// order). Non-scale-out policies route across the whole fleet; the
	// scale-out policy starts at one node and adjusts serially at ingest
	// tick starts, so scaling decisions are deterministic.
	active   int
	cooldown int // ticks until the next scaling action is allowed

	res FleetResult

	// merge is the scratch of fleet-wide merges: every node bank laid end
	// to end.
	merge patternSet

	fleetHist *obs.Histogram

	pool *workerPool // the package phase

	cArrivals, cShed, cDegraded, cCompleted *obs.Counter
	cFlagged, cMerges                       *obs.Counter
}

// NewFleet builds the fleet: per-node topologies, template libraries,
// per-node template banks, and the persistent package worker pool.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	stream, err := workload.NewStream(cfg.Stream)
	if err != nil {
		return nil, err
	}
	// Template libraries and node banks reuse the single-node engine's
	// builders over the knobs the two share.
	bankCfg := cfg.shared()
	tmpl, err := buildTemplates(bankCfg)
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, stream: stream, tmpl: tmpl}
	mc := machine.DefaultConfig()
	f.penCfg = mc.Cache
	for ni, topo := range cfg.Nodes {
		clock := mc.CyclesPerNs
		if topo.CyclesPerNs > 0 {
			clock = topo.CyclesPerNs
		}
		n := &fleetNode{topo: topo, clock: clock}
		n.res.Node = ni
		n.res.Topology = topo.String()
		for pi, ps := range topo.Packages {
			pc := mc.Cache
			if ps.CacheMB > 0 {
				pc.CapacityBytes = ps.CacheMB * (1 << 20)
			}
			pkg := &fleetPkg{
				node:      ni,
				idx:       pi,
				cacheCfg:  pc,
				winBuf:    make([]winRec, 0, ps.Cores*cfg.QueueCap),
				patBuf:    make([]float64, 0, cfg.MaxPatternLen),
				miss:      make([]float64, ps.Cores),
				demands:   make([]*cache.Demand, ps.Cores),
				demandBuf: make([]cache.Demand, ps.Cores),
			}
			for j := 0; j < ps.Cores; j++ {
				pkg.cores = append(pkg.cores, len(n.cores))
				n.cores = append(n.cores, fleetCore{
					q:     make([]fleetReq, 0, cfg.QueueCap),
					qNext: make([]fleetReq, 0, cfg.QueueCap),
					scale: ps.FreqScale,
				})
			}
			n.pkgs = append(n.pkgs, len(f.pkgs))
			f.pkgs = append(f.pkgs, pkg)
		}
		n.wb.init(bankCfg, tmpl)
		n.hist = obs.NewHistogram(fmt.Sprintf("fleet.node%d.latency.ns", ni))
		f.nodes = append(f.nodes, n)
	}
	nc := cfg.Stream.Cohorts
	if nc < 1 {
		nc = 1
	}
	f.fleetThresholds = make([]float64, nc)
	for i := range f.fleetThresholds {
		f.fleetThresholds[i] = f.nodes[0].wb.bank.ThresholdNs
	}
	f.cohortCPUs = make([][]float64, nc)
	for i := range f.cohortCPUs {
		f.cohortCPUs[i] = make([]float64, 0, len(f.nodes)*cfg.WindowSize)
	}
	f.fleetHist = obs.NewHistogram("fleet.latency.ns")
	f.res.Policy = cfg.Policy.String()
	f.active = len(f.nodes)
	if cfg.Policy == FleetScaleOut {
		f.active = 1
	}

	// Merge scratch sized to the concatenation of every node's bank.
	mcap := len(f.nodes) * cfg.BankK
	if tb := cfg.TemplatesPerApp * len(tmpl) * len(f.nodes); tb > mcap {
		mcap = tb
	}
	f.merge.init(mcap, cfg.BankK, cfg.MaxPatternLen)

	if c := cfg.Obs; c != nil {
		c.RegisterHistogram(f.fleetHist)
		for _, n := range f.nodes {
			c.RegisterHistogram(n.hist)
		}
		f.cArrivals = c.Counter("fleet.arrivals")
		f.cShed = c.Counter("fleet.shed")
		f.cDegraded = c.Counter("fleet.degraded")
		f.cCompleted = c.Counter("fleet.completed")
		f.cFlagged = c.Counter("fleet.flagged")
		f.cMerges = c.Counter("fleet.merges")
	}
	f.pool = newWorkerPool(cfg.Workers, len(f.pkgs), func(p int) {
		f.processPkg(f.pkgs[p])
	})
	return f, nil
}

// Process advances the fleet until at least n more arrivals have been
// ingested (admitted or shed), then finishes the tick.
func (f *Fleet) Process(n int) {
	var ingested int
	for ingested < n {
		ingested += f.runTick(true)
	}
}

// Drain runs ticks without ingesting until every core queue is empty.
func (f *Fleet) Drain() {
	for {
		f.runTick(false)
		if f.Queued() == 0 {
			return
		}
	}
}

// runTick executes one tick: serial ingest, serial rate snapshots, the
// parallel package phase, serial aggregation, and periodic compaction.
func (f *Fleet) runTick(ingest bool) int {
	tickEnd := f.nowNs + f.cfg.TickNs
	var arrivals int
	if ingest {
		if f.cfg.Policy == FleetScaleOut {
			f.updateScale()
		}
		arrivals = f.ingest(tickEnd)
	}
	f.snapshotRates()
	f.pool.run() // parallel package phase
	f.aggregate()
	f.nowNs = tickEnd
	f.tick++
	if f.tick%uint64(f.cfg.CompactTicks) == 0 {
		f.compactRound()
	}
	return arrivals
}

// Queued returns the total in-flight requests across the fleet.
func (f *Fleet) Queued() int {
	var q int
	for _, n := range f.nodes {
		for i := range n.cores {
			q += len(n.cores[i].q)
		}
	}
	return q
}

// Histogram returns the fleet-wide virtual-latency histogram.
func (f *Fleet) Histogram() *obs.Histogram { return f.fleetHist }

// Result snapshots the run's deterministic outcome.
func (f *Fleet) Result() FleetResult {
	r := f.res
	r.VirtualNs = f.nowNs
	r.Queued = f.Queued()
	r.Nodes = make([]NodeResult, len(f.nodes))
	for i, n := range f.nodes {
		nr := n.res
		nr.Cores = len(n.cores)
		if nr.Instructions > 0 {
			nr.CPI = nr.Cycles / nr.Instructions
		}
		nr.P99Ns = n.hist.Quantile(0.99)
		nr.Compactions = n.wb.compactions
		nr.Recalibrations = n.wb.recalibrations
		nr.BankEntries = len(n.wb.bank.Entries)
		nr.Threshold = n.wb.threshold
		r.Nodes[i] = nr
		r.Cycles += nr.Cycles
		r.Instructions += nr.Instructions
	}
	if r.Instructions > 0 {
		r.CPI = r.Cycles / r.Instructions
	}
	r.P99Ns = f.fleetHist.Quantile(0.99)
	r.ActiveNodes = f.active
	return r
}

// Close stops the worker pool. The fleet must not be used afterwards.
func (f *Fleet) Close() { f.pool.close() }
