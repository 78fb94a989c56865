package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/verify"
	"repro/internal/workload"
)

// service is what the benchmark drives of serve.Engine and serve.Fleet.
type service interface {
	Process(n int)
	Drain()
	Close()
}

// tally is the part of a serve or fleet Result the checks need.
type tally struct {
	arrivals, shed, completed, ticks uint64
	queued                           int
}

// serviceSpec is a serve or fleet workload. Each repetition builds the
// service, warms it with warm Process(1) calls, and times window more,
// one tick per call: a closed loop over virtual time, with arrivals inside
// it an open loop at the stream's own rate.
type serviceSpec struct {
	name         string // metric prefix: "serve" or "fleet"
	warm, window int
	stream       workload.StreamConfig
	tickNs       int64
	compactTicks int
	mergeEvery   int // 0: the service never merges
	open         func(*obs.Collector) (service, error)
	// state snapshots the Result: the tally and the value fingerprinted.
	state func(service) (tally, any)
	// identify returns the always-on identify-latency histogram; nil when
	// the service has none.
	identify func(service) *obs.Histogram
}

// serveSpec is the single-node engine of the traced run: the default
// config, warmed past its burst (100–140 ms virtual) and first three
// compactions, then timed over two virtual seconds.
func serveSpec(seed int64) *serviceSpec {
	cfg := serve.DefaultConfig(seed)
	return &serviceSpec{
		name: "serve", warm: 300, window: 2000,
		stream: cfg.Stream, tickNs: cfg.TickNs, compactTicks: cfg.CompactTicks,
		open: func(c *obs.Collector) (service, error) {
			cfg := cfg
			cfg.Obs = c
			e, err := serve.New(cfg)
			if err != nil {
				return nil, err
			}
			return e, nil
		},
		state: func(s service) (tally, any) {
			r := s.(*serve.Engine).Result()
			return tally{r.Arrivals, r.Shed, r.Completed, r.Ticks, r.Queued}, r
		},
		identify: func(s service) *obs.Histogram { return s.(*serve.Engine).Histogram() },
	}
}

// fleetSpec is fleet-ease: the default 16-core heterogeneous fleet under
// contention-easing placement, warmed through three compaction rounds,
// then timed over seven virtual seconds that include the flash crowd
// (5–6.5 s virtual) and four fleet-wide merges, the first 500 ticks in.
//
// The package phase runs on the driving goroutine (Workers 1; worker
// counts never change results). A plain fleet tick takes about 30 µs, so
// handing each tick's packages to a second worker and waiting for it saves
// nothing on a 2-CPU host, and the wait for an idle virtual CPU to wake
// depends on the host's load rather than on the program.
func fleetSpec(seed int64) *serviceSpec {
	cfg := serve.DefaultFleetConfig(seed)
	cfg.Policy = serve.FleetContentionEase
	cfg.Workers = 1
	return &serviceSpec{
		name: "fleet", warm: 1500, window: 7000,
		stream: cfg.Stream, tickNs: cfg.TickNs, compactTicks: cfg.CompactTicks, mergeEvery: cfg.MergeEvery,
		open: func(c *obs.Collector) (service, error) {
			cfg := cfg
			cfg.Obs = c
			f, err := serve.NewFleet(cfg)
			if err != nil {
				return nil, err
			}
			return f, nil
		},
		state: func(s service) (tally, any) {
			r := s.(*serve.Fleet).Result()
			return tally{r.Arrivals, r.Shed, r.Completed, r.Ticks, r.Queued}, r
		},
	}
}

type tickClass int

const (
	plainTick tickClass = iota
	compactTick
	mergeTick
)

var tickNames = [...]string{"tick.plain", "tick.compact", "tick.merge"}

// anyTick selects every class in tickMicros.
const anyTick tickClass = -1

// tickPlan is what each Process(1) call of a repetition does, derived from
// the config rather than from per-tick Result calls (Fleet.Result
// allocates, which would pollute the timed window).
type tickPlan struct {
	class    []tickClass // per call: the heaviest periodic work it runs
	lastTick uint64      // the tick count after the last call
}

// plan replays the arrival stream: a Process(1) call runs ticks until one
// ingests an arrival, so each call ends on the tick holding the first
// arrival after the previous call's last tick. A call compacts when it
// runs a tick numbered a multiple of compactTicks, and merges when that is
// also the mergeEvery-th compaction round.
func (s *serviceSpec) plan() (*tickPlan, error) {
	st, err := workload.NewStream(s.stream)
	if err != nil {
		return nil, err
	}
	p := &tickPlan{class: make([]tickClass, s.warm+s.window)}
	ct := uint64(s.compactTicks)
	var a workload.Arrival
	for i := range p.class {
		tick := p.lastTick
		for tick <= p.lastTick {
			st.Next(&a)
			tick = uint64(a.TimeNs/s.tickNs) + 1
		}
		c := plainTick
		for k := p.lastTick + 1; k <= tick; k++ {
			if k%ct != 0 {
				continue
			}
			if s.mergeEvery > 0 && (k/ct)%uint64(s.mergeEvery) == 0 {
				c = mergeTick
			} else if c < compactTick {
				c = compactTick
			}
		}
		p.class[i] = c
		p.lastTick = tick
	}
	return p, nil
}

// repStats is one repetition's outcome. Window figures cover only the
// timed calls.
type repStats struct {
	setup, window  time.Duration
	arrivals, shed uint64
	mallocs        uint64
	total          uint64  // arrivals from tick 0 through the window
	rssMB          float64 // process peak RSS when the repetition ended
	ticks          []time.Duration
	fp             string
	identify       *obs.Histogram
}

// runRep builds, warms, times and drains one service, checking that its
// tick count matches the plan and that every arrival is accounted for.
func (s *serviceSpec) runRep(p *tickPlan, col *obs.Collector, tr *tracer, rep *report) (repStats, error) {
	var st repStats
	// Each repetition starts from a collected heap, so garbage left by the
	// previous one is neither timed nor counted in the peak RSS.
	debug.FreeOSMemory()
	repSpan := tr.begin(s.name)
	defer tr.end(repSpan)

	t0 := time.Now()
	setupSpan := tr.begin("setup")
	svc, err := s.open(col)
	if err != nil {
		return st, fmt.Errorf("%s: %w", s.name, err)
	}
	defer svc.Close()
	for i := 0; i < s.warm; i++ {
		svc.Process(1)
	}
	tr.end(setupSpan)
	st.setup = time.Since(t0)

	before, _ := s.state(svc)
	st.ticks = make([]time.Duration, s.window)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	winSpan := tr.begin("window")
	w0 := time.Now()
	for i := range st.ticks {
		id := tr.begin(tickNames[p.class[s.warm+i]])
		t := time.Now()
		svc.Process(1)
		st.ticks[i] = time.Since(t)
		tr.end(id)
	}
	st.window = time.Since(w0)
	tr.end(winSpan)

	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - mallocs
	after, _ := s.state(svc)
	st.arrivals = after.arrivals - before.arrivals
	st.shed = after.shed - before.shed
	st.total = after.arrivals
	rep.Attempted += int64(st.arrivals)
	if after.ticks != p.lastTick {
		rep.fail("%s: %d ticks after the window, plan says %d", s.name, after.ticks, p.lastTick)
	}

	drainSpan := tr.begin("drain")
	svc.Drain()
	tr.end(drainSpan)
	final, res := s.state(svc)
	if final.queued != 0 || final.arrivals != final.completed+final.shed {
		rep.fail("%s: after Drain arrivals %d != completed %d + shed %d + queued %d",
			s.name, final.arrivals, final.completed, final.shed, final.queued)
	}
	if s.identify != nil {
		st.identify = s.identify(svc)
	}
	if st.fp, err = verify.Fingerprint(res); err != nil {
		return st, fmt.Errorf("%s: %w", s.name, err)
	}
	st.rssMB, err = peakRSSMB()
	return st, err
}

// reps runs repetitions until budget has elapsed (at least one), checking
// that every repetition's Result fingerprint equals want, or the first
// one's when want is empty. It returns the repetitions and the fingerprint.
func (s *serviceSpec) reps(p *tickPlan, budget time.Duration, col *obs.Collector, tr *tracer, want string, rep *report) ([]repStats, string, error) {
	var out []repStats
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		st, err := s.runRep(p, col, tr, rep)
		if err != nil {
			return nil, "", err
		}
		if want == "" {
			want = st.fp
		} else if st.fp != want {
			rep.fail("%s seed=%d: repetition fingerprint %s, expected %s", s.name, s.stream.Seed, st.fp, want)
		}
		out = append(out, st)
	}
	return out, want, nil
}

// checkReference drives a fresh service with one Process call for the
// repetition's whole arrival count — the way the program's own callers
// drive it — and checks it ends in the same Result as tick-by-tick
// Process(1) driving. Process(n) stops after the tick that reaches n
// arrivals, which is the last tick of the repetition.
func (s *serviceSpec) checkReference(st repStats, rep *report) error {
	svc, err := s.open(nil)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	defer svc.Close()
	svc.Process(int(st.total))
	svc.Drain()
	_, res := s.state(svc)
	fp, err := verify.Fingerprint(res)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	if fp != st.fp {
		rep.fail("%s seed=%d: Process(%d) fingerprint %s, Process(1) driving %s", s.name, s.stream.Seed, st.total, fp, st.fp)
	}
	return nil
}

// tickMicros pools the repetitions' times of ticks of one class (or
// anyTick), in microseconds, sorted.
func tickMicros(p *tickPlan, warm int, reps []repStats, class tickClass) []float64 {
	var out []float64
	for _, st := range reps {
		for i, d := range st.ticks {
			if class == anyTick || p.class[warm+i] == class {
				out = append(out, float64(d.Nanoseconds())/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// serviceEndToEnd times repetitions of the workload, then checks the
// registry against the smoke-tier corpus: its serve and fleet experiments
// drive the same engine and fleet from the same default configs. The check
// comes after the first repetition has recorded the peak RSS, so neither
// the corpora nor the registry's heap count in it.
func serviceEndToEnd(o options, s *serviceSpec, rep *report) error {
	p, err := s.plan()
	if err != nil {
		return err
	}
	reps, _, err := s.reps(p, secondsDuration(o.seconds), nil, nil, "", rep)
	if err != nil {
		return err
	}
	if err := s.checkReference(reps[0], rep); err != nil {
		return err
	}
	golden, err := loadCorpora(o.corpus)
	if err != nil {
		return err
	}
	smokeCheck(rep, golden)
	var setups, windows []float64
	for _, st := range reps {
		setups = append(setups, st.setup.Seconds())
		windows = append(windows, st.window.Seconds())
	}
	ticks := tickMicros(p, s.warm, reps, anyTick)
	if beyond := len(ticks) / 1000; beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d ticks lie beyond p99.9 (want >= 10)\n", beyond)
	}
	rep.set("wall_s", median(windows), "s")
	rep.set("tick_p999_us", quantile(ticks, 0.999), "us")
	rep.set("setup_s", median(setups), "s")
	// Repetitions are identical, so the first one reaches the program's
	// peak; later ones would only add the benchmark's own tick samples.
	rep.set("peak_rss_mb", reps[0].rssMB, "MB")
	fmt.Printf("%s: %d repetitions, %d ticks timed\n", s.name, len(reps), len(ticks))
	return nil
}

// serviceTraced spends a quarter of the budget on untraced repetitions
// (allocations, throughput, shed share, median tick) and a quarter on traced ones
// (tick classes, signature counters), and checks their fingerprints agree.
func serviceTraced(o options, s *serviceSpec, rep *report, tr *tracer) error {
	p, err := s.plan()
	if err != nil {
		return err
	}
	budget := secondsDuration(o.seconds / 4)
	plain, fp, err := s.reps(p, budget, nil, nil, "", rep)
	if err != nil {
		return err
	}
	if err := s.checkReference(plain[0], rep); err != nil {
		return err
	}
	col := obs.New(s.name)
	traced, _, err := s.reps(p, budget, col, tr, fp, rep)
	if err != nil {
		return err
	}

	var arrivals, shed, mallocs uint64
	var plainWall, tracedWall time.Duration
	for _, st := range plain {
		arrivals += st.arrivals
		shed += st.shed
		mallocs += st.mallocs
		plainWall += st.window
	}
	for _, st := range traced {
		tracedWall += st.window
	}
	perTick := func(reps []repStats, wall time.Duration) float64 {
		return wall.Seconds() / float64(len(reps)*s.window)
	}
	n := s.name
	rep.set(n+".req_per_s", float64(arrivals)/plainWall.Seconds(), "1/s")
	rep.set(n+".shed_frac", float64(shed)/float64(arrivals), "ratio")
	rep.set(n+".allocs_per_req", float64(mallocs)/float64(arrivals), "count")
	rep.set(n+".trace_overhead_pct", 100*(perTick(traced, tracedWall)/perTick(plain, plainWall)-1), "%")
	rep.set(n+".tick_p50_us", quantile(tickMicros(p, s.warm, plain, anyTick), 0.5), "us")
	rep.set(n+".plain_tick_p50_us", quantile(tickMicros(p, s.warm, traced, plainTick), 0.5), "us")
	rep.set(n+".compact_tick_p50_us", quantile(tickMicros(p, s.warm, traced, compactTick), 0.5), "us")
	if s.mergeEvery > 0 {
		rep.set(n+".merge_tick_p50_us", quantile(tickMicros(p, s.warm, traced, mergeTick), 0.5), "us")
	}

	if s.identify == nil {
		return nil
	}
	var p50s, p99s []float64
	var identifies uint64
	for _, st := range traced {
		p50s = append(p50s, st.identify.Quantile(0.5))
		p99s = append(p99s, st.identify.Quantile(0.99))
		identifies += st.identify.Count()
	}
	counters := map[string]float64{}
	for _, c := range col.Report().Counters {
		counters[c.Name] = float64(c.Value)
	}
	pruned := counters["signature.prune.cached_lb"] + counters["signature.prune.paa_bound"] + counters["signature.prune.abandoned"]
	rep.set("signature.identify_p50_ns", median(p50s), "ns")
	rep.set("signature.identify_p99_ns", median(p99s), "ns")
	rep.set("signature.pruned_per_identify", pruned/float64(identifies), "count")
	rep.set("signature.session_reuse_ratio",
		counters["signature.sessions.reused"]/(counters["signature.sessions.reused"]+counters["signature.sessions.created"]), "ratio")
	return nil
}
