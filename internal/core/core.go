// Package core is the library facade of the reproduction: it wires the
// simulated multicore machine, kernel, workload drivers, and the paper's
// sampling layer into single-call experiment runs, and bundles the
// variation-driven request modeling (classification, anomaly analysis,
// signature identification) behind one Modeler type.
//
// The paper's contribution decomposes into (1) online OS-level tracking of
// request behavior variations (package sampling on top of kernel/machine),
// (2) variation-driven request modeling (packages distance, cluster,
// anomaly, signature), and (3) contention-easing scheduling (package
// sched). Package core is the front door to all three.
package core

import (
	"errors"
	"fmt"

	"repro/internal/distance"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Validation and runtime failures returned by Run. All are sentinel values:
// test with errors.Is; the error actually returned wraps the sentinel with
// the offending value.
var (
	// ErrNoApp reports a missing Options.App.
	ErrNoApp = errors.New("core: Options.App is required")
	// ErrNoRequests reports a non-positive Options.Requests.
	ErrNoRequests = errors.New("core: Options.Requests must be positive")
	// ErrBadTopology reports a machine layout that fails validation; the
	// wrapped message names the offending topology field.
	ErrBadTopology = errors.New("core: invalid machine topology")
	// ErrBadConcurrency reports a negative Options.Concurrency.
	ErrBadConcurrency = errors.New("core: Options.Concurrency must be non-negative")
	// ErrBadThreshold reports a missing or non-positive UsageThreshold where
	// one is required (registered policies that classify high usage,
	// co-execution metering).
	ErrBadThreshold = errors.New("core: a positive UsageThreshold is required")
	// ErrUnknownPolicy reports a PolicyName missing from the sched
	// package's policy registry.
	ErrUnknownPolicy = errors.New("core: unknown policy")
	// ErrStalled reports a run whose event queue drained before all
	// requests completed (a workload/scheduler deadlock).
	ErrStalled = errors.New("core: run stalled")
)

// Options configures a workload run.
type Options struct {
	// App is the server application under study.
	App workload.App
	// Topology overrides the full machine layout (nil = the paper's
	// 2×2-core box). Set with WithTopology.
	Topology *machine.Topology
	// Concurrency is the closed-loop client session count (0 = 2×cores,
	// enough to keep every core busy with queued alternatives).
	Concurrency int
	// Requests is the number of requests to complete.
	Requests int
	// Sampling configures the tracker; the zero value means context-switch
	// sampling only. Use DefaultSampling for the paper's per-app setup.
	Sampling sampling.Config
	// PolicyName selects the scheduler from the sched package's policy
	// registry by name (see sched.PolicyNames); empty means the kernel's
	// baseline round-robin. Policies that classify high usage need
	// UsageThreshold, and the signature-driven ones (cluster-cosched,
	// deadline) need SignatureBank.
	PolicyName string
	// SignatureBank is the application's signature bank, handed to
	// registered policies that predict request properties online.
	SignatureBank *signature.Bank
	// UsageThreshold is the high-usage threshold (required by the
	// policies that classify high usage; see sched.HighUsageThreshold).
	UsageThreshold float64
	// MeterCoExecution enables the Figure 12 co-execution meter using
	// UsageThreshold.
	MeterCoExecution bool
	// Seed drives all randomness.
	Seed int64

	// Ablation switches (DESIGN.md section 5). Zero values are the paper's
	// system; the benches flip these to quantify each design choice.

	// NoContention disables the shared-cache and memory-bandwidth
	// contention model: co-runners no longer affect each other.
	NoContention bool
	// NoSwitchPollution stops charging context switches their cache
	// refill cost.
	NoSwitchPollution bool

	// observer receives spans and counters for the run; set it with
	// WithObserver. Nil (the default) leaves the run uninstrumented.
	observer *obs.Collector
}

// Option adjusts Options functionally; pass options as trailing arguments
// to Run. Options apply in order after the literal struct, so a later
// option overrides both the struct field and any earlier option.
type Option func(*Options)

// WithSampling sets the tracker configuration (see Options.Sampling).
func WithSampling(cfg sampling.Config) Option {
	return func(o *Options) { o.Sampling = cfg }
}

// WithTopology sets the machine layout for the run — package sizes,
// per-package frequency scale and cache capacity, and clock rate (see
// machine.Topology and machine.ParseTopology).
func WithTopology(t machine.Topology) Option {
	return func(o *Options) { o.Topology = &t }
}

// WithObserver attaches an observability collector to the run. The run
// enters a "run" span scope, instruments the kernel and sampling tracker,
// and records end-of-run totals (events dispatched, preemptions, sampler
// overhead accounting) into the collector. Instrumentation reads only the
// virtual clock and values the simulation already computes, so results are
// bit-identical with or without a collector.
func WithObserver(c *obs.Collector) Option {
	return func(o *Options) { o.observer = c }
}

// validate checks the option set before any simulation state is built.
func (o *Options) validate() error {
	if o.App == nil {
		return ErrNoApp
	}
	if o.Requests <= 0 {
		return fmt.Errorf("%w, got %d", ErrNoRequests, o.Requests)
	}
	if o.Concurrency < 0 {
		return fmt.Errorf("%w, got %d", ErrBadConcurrency, o.Concurrency)
	}
	if o.PolicyName != "" {
		f, ok := sched.LookupPolicy(o.PolicyName)
		if !ok {
			return fmt.Errorf("%w %q (valid: %v)", ErrUnknownPolicy, o.PolicyName, sched.PolicyNames())
		}
		if f.NeedsThreshold && o.UsageThreshold <= 0 {
			return fmt.Errorf("%w by policy %s, got %g", ErrBadThreshold, o.PolicyName, o.UsageThreshold)
		}
	}
	if o.MeterCoExecution && o.UsageThreshold <= 0 {
		return fmt.Errorf("%w by co-execution metering, got %g", ErrBadThreshold, o.UsageThreshold)
	}
	return nil
}

// Result is everything a run produces.
type Result struct {
	// Store holds the completed request traces.
	Store *trace.Store
	// Samples tallies sampling activity for overhead accounting.
	Samples sampling.Counts
	// CoExecution is Figure 12's metric (zero unless metered).
	CoExecution sched.HighUsageCoExecution
	// Trainer carries transition-signal statistics when training was on.
	Trainer *sampling.SignalTrainer
	// PolicyStats reports contention-easing decisions (nil for the
	// baseline policy).
	PolicyStats *sched.ContentionEasing
	// ContextSwitches and Syscalls are kernel event totals.
	ContextSwitches, Syscalls uint64
	// WallTime is the simulated duration of the whole run.
	WallTime sim.Time
}

// DefaultSampling returns the paper's Section 3.1 sampling setup for an
// application: periodic interrupt sampling at the per-app granularity with
// observer-effect compensation.
func DefaultSampling(app workload.App) sampling.Config {
	return sampling.Config{
		Mode:       sampling.Interrupt,
		Period:     app.SamplingPeriod(),
		Compensate: true,
	}
}

// SyscallSampling returns the paper's Section 3.2 setup: system
// call-triggered sampling with a backup interrupt. TsyscallMin is set to
// the app's sampling period (matching overall frequency) and the backup
// delay substantially larger.
func SyscallSampling(app workload.App) sampling.Config {
	return sampling.Config{
		Mode:        sampling.SyscallTriggered,
		TsyscallMin: app.SamplingPeriod(),
		TbackupInt:  8 * app.SamplingPeriod(),
		Compensate:  true,
	}
}

// Run executes a closed-loop load under the given options. Trailing Option
// values are applied to opts first (so callers can keep a literal Options
// and layer WithSampling/WithObserver on top); the combined set is then
// validated against the typed sentinel errors before any simulation state
// is built.
func Run(opts Options, extra ...Option) (*Result, error) {
	for _, o := range extra {
		o(&opts)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	col := opts.observer
	eng := sim.NewEngine()
	kcfg := kernel.DefaultConfig()
	if opts.NoContention {
		kcfg.Machine.Cache.StressScale = 0
		kcfg.Machine.Cache.BandwidthSlope = 0
	}
	if opts.NoSwitchPollution {
		kcfg.PollutionOnSwitch = false
	}
	if opts.Topology != nil {
		kcfg.Machine.Topology = *opts.Topology
	}
	if err := kcfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTopology, err)
	}
	k := kernel.New(eng, kcfg)
	tk := sampling.NewTracker(k, opts.Sampling)
	// Scope first, then resolve the instrumented components' handles: span
	// series attach to the tree under the scope current at setup time.
	col.Enter("run")
	defer func() { col.Exit(eng.Now()) }()
	k.SetObserver(col)
	tk.SetObserver(col)

	res := &Result{}
	if opts.PolicyName != "" {
		// Build the named policy from a shared context, so every caller
		// (experiments, differentials, CLIs) constructs the same policy
		// from the same name. Factory errors (a missing bank) surface
		// before any simulation runs.
		pol, err := sched.NewPolicy(opts.PolicyName, &sched.PolicyContext{
			Tracker:   tk,
			Threshold: opts.UsageThreshold,
			Bank:      opts.SignatureBank,
		})
		if err != nil {
			return nil, err
		}
		k.SetPolicy(pol)
		if ce, ok := pol.(*sched.ContentionEasing); ok {
			res.PolicyStats = ce
		}
	}
	var meter *sched.CoExecutionMeter
	if opts.MeterCoExecution {
		meter = sched.NewCoExecutionMeter(k, opts.UsageThreshold, sim.Millisecond)
	}

	concurrency := opts.Concurrency
	if concurrency <= 0 {
		concurrency = 2 * kcfg.Machine.NumCores()
	}
	d := kernel.NewDriver(k, kernel.LoadConfig{
		App:         opts.App,
		Concurrency: concurrency,
		Requests:    opts.Requests,
		Seed:        opts.Seed,
	})
	d.Start()
	eng.RunAll()
	if meter != nil {
		meter.Stop()
		res.CoExecution = meter.Result()
	}
	if d.Completed() != opts.Requests {
		return nil, fmt.Errorf("%w at %d/%d requests", ErrStalled, d.Completed(), opts.Requests)
	}
	res.Store = tk.Store()
	res.Samples = tk.Counts
	res.Trainer = tk.Trainer()
	res.ContextSwitches = k.Stats.ContextSwitches
	res.Syscalls = k.Stats.Syscalls
	res.WallTime = eng.Now()
	if col != nil {
		col.Counter("sim.events_dispatched").Add(eng.Dispatched())
		col.Counter("kernel.preemptions").Add(k.Stats.Preemptions)
		col.Counter("kernel.kept_current").Add(k.Stats.KeptCurrent)
		col.AddSamplerStats(obs.SamplerStats{
			KernelSamples:    res.Samples.Kernel,
			InterruptSamples: res.Samples.Interrupt,
			KernelCostNs:     sampling.KernelSampleCostNs,
			InterruptCostNs:  sampling.InterruptSampleCostNs,
			WallNs:           int64(res.WallTime),
		})
	}
	return res, nil
}

// BucketFor returns the per-application resampling bucket (instructions)
// used when turning traces into fixed-length-period sequences: roughly
// 1/20th of a typical request, so patterns have enough points to compare
// without drowning in noise.
func BucketFor(app string) float64 {
	switch app {
	case "webserver":
		return 10e3
	case "tpcc":
		return 50e3
	case "rubis":
		return 100e3
	case "tpch":
		return 2e6
	case "webwork":
		return 5e6
	default:
		return 100e3
	}
}

// Modeler bundles Section 4's variation-driven request modeling over a set
// of traces from one application.
type Modeler struct {
	// BucketIns is the resampling bucket.
	BucketIns float64
	// AsyncPenalty and L1Penalty, when zero, are derived from the trace
	// population (the paper's 99-percentile peak metric difference).
	AsyncPenalty float64
	L1Penalty    float64
}

// NewModeler builds a modeler for an application's traces, deriving the
// penalty from the population per Section 4.1.
func NewModeler(app string, traces []*trace.Request) *Modeler {
	bucket := BucketFor(app)
	var seqs [][]float64
	for _, tr := range traces {
		seqs = append(seqs, tr.Resampled(metrics.CPI, bucket))
	}
	p := distance.PeakPenalty(seqs)
	return &Modeler{BucketIns: bucket, AsyncPenalty: p, L1Penalty: p}
}

// L1 returns the Equation 2 measure with the derived penalty.
func (m *Modeler) L1() distance.Measure { return distance.L1{Penalty: m.L1Penalty} }

// DTW returns plain dynamic time warping.
func (m *Modeler) DTW() distance.Measure { return distance.DTW{} }

// DTWPenalized returns the paper's enhanced measure.
func (m *Modeler) DTWPenalized() distance.Measure {
	return distance.DTW{AsyncPenalty: m.AsyncPenalty}
}
