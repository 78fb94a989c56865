package main

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/verify"
)

// smokeScale is the scale of the committed smoke-tier corpus; every run
// checks the whole registry at (goldenSeed, smokeScale) against it, so a
// run at any seed proves the build reproduces committed outputs.
const smokeScale = 0.05

// setupReps is how many times a repro-full run sets up: each set-up loads
// the golden corpora and runs the smoke check, and setup_s is their median.
const setupReps = 3

// matrixExps are the experiments whose distance matrices report filled
// cells to an attached collector.
var matrixExps = []string{"fig6", "fig7"}

// expResult is one registry experiment's run.
type expResult struct {
	name string
	wall time.Duration
	fp   string
	err  error
	// counters holds the experiment's obs counters (traced passes only).
	counters map[string]uint64
}

// loadCorpora reads the smoke-tier and full-tier golden corpora into one
// map keyed by verify.Cell.Key (keys carry the scale, so they never clash).
func loadCorpora(root string) (map[string]*verify.Golden, error) {
	all := map[string]*verify.Golden{}
	for _, dir := range []string{"golden", "golden-full"} {
		c, err := verify.LoadCorpus(filepath.Join(root, dir))
		if err != nil {
			return nil, fmt.Errorf("load golden corpus: %w", err)
		}
		for _, k := range c.Keys() {
			all[k] = c.Entries[k]
		}
	}
	return all, nil
}

// registryPass runs every registry experiment once, in registry order.
// With a tracer, each experiment gets its own obs.Collector and a span.
func registryPass(seed int64, scale float64, tr *tracer) ([]expResult, time.Duration) {
	pass := tr.begin("registry")
	start := time.Now()
	var out []expResult
	for _, e := range experiments.Registry() {
		// Each experiment starts from a collected heap, so the peak RSS is
		// the largest experiment's own rather than depending on when the
		// garbage of earlier ones was collected.
		debug.FreeOSMemory()
		cfg := experiments.Config{Seed: seed, Scale: scale}
		if tr != nil {
			cfg.Obs = obs.New(e.Name())
		}
		id := tr.begin(e.Name())
		t0 := time.Now()
		res, err := e.Run(cfg)
		r := expResult{name: e.Name(), wall: time.Since(t0), err: err}
		tr.end(id)
		if err == nil {
			r.fp, r.err = verify.Fingerprint(res)
		}
		if rep := cfg.Obs.Report(); rep != nil {
			r.counters = map[string]uint64{}
			for _, c := range rep.Counters {
				r.counters[c.Name] = c.Value
			}
		}
		out = append(out, r)
	}
	wall := time.Since(start)
	tr.end(pass)
	return out, wall
}

// checkPass counts each experiment as attempted and fails it when it
// errored or its fingerprint differs from the committed golden entry for
// its cell. At the golden seed every cell must have an entry.
func checkPass(rep *report, golden map[string]*verify.Golden, res []expResult, seed int64, scale float64) {
	for _, r := range res {
		rep.Attempted++
		cell := verify.Cell{Experiment: r.name, Seed: seed, Scale: scale}
		g, ok := golden[cell.Key()]
		switch {
		case r.err != nil:
			rep.fail("%s: %v", cell, r.err)
		case ok && g.Fingerprint != r.fp:
			rep.fail("%s: fingerprint %s, golden %s", cell, r.fp, g.Fingerprint)
		case !ok && seed == goldenSeed:
			rep.fail("%s: no golden entry %s", cell, cell.Key())
		}
	}
}

// smokeCheck runs the registry at the smoke-tier cell and checks it.
func smokeCheck(rep *report, golden map[string]*verify.Golden) {
	res, _ := registryPass(goldenSeed, smokeScale, nil)
	checkPass(rep, golden, res, goldenSeed, smokeScale)
}

// reproEndToEnd sets up setupReps times, then times whole registry passes
// at the run's seed until the budget would be exceeded (at least one
// pass). The driver's "tick" on this workload is one experiment. Set-up is
// everything a run does before its timed passes. Its smoke pass runs every
// experiment at a twentieth of full scale, where each experiment's fixed
// construction cost is a large share, so a change in construction cost
// shows more in setup_s than in wall_s.
func reproEndToEnd(o options, rep *report) error {
	var golden map[string]*verify.Golden
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		var err error
		if golden, err = loadCorpora(o.corpus); err != nil {
			return err
		}
		smokeCheck(rep, golden)
		setups[i] = time.Since(t0).Seconds()
	}
	var walls, exps []float64
	start := time.Now()
	for {
		res, wall := registryPass(o.seed, o.scale, nil)
		checkPass(rep, golden, res, o.seed, o.scale)
		walls = append(walls, wall.Seconds())
		for _, r := range res {
			exps = append(exps, float64(r.wall.Nanoseconds())/1e3)
		}
		if time.Since(start)+wall > secondsDuration(o.seconds) {
			break
		}
	}
	sort.Float64s(exps)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("wall_s", median(walls), "s")
	rep.set("tick_p999_us", quantile(exps, 0.999), "us")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", rss, "MB")
	fmt.Printf("repro-full: %d passes, %d experiments timed\n", len(walls), len(exps))
	return nil
}

// reproTraced runs the registry untraced and then traced at the run's
// seed, checks both and that their fingerprints agree, and reports the
// per-experiment and simulator-layer metrics from the traced pass.
func reproTraced(o options, rep *report, tr *tracer) error {
	golden, err := loadCorpora(o.corpus)
	if err != nil {
		return err
	}
	smokeCheck(rep, golden)
	plain, plainWall := registryPass(o.seed, o.scale, nil)
	checkPass(rep, golden, plain, o.seed, o.scale)
	traced, tracedWall := registryPass(o.seed, o.scale, tr)
	checkPass(rep, golden, traced, o.seed, o.scale)

	byName := map[string]expResult{}
	for i, r := range traced {
		if r.err == nil && r.fp != plain[i].fp {
			rep.fail("%s seed=%d: traced fingerprint %s, untraced %s", r.name, o.seed, r.fp, plain[i].fp)
		}
		rep.set("exp."+r.name+"_s", r.wall.Seconds(), "s")
		byName[r.name] = r
	}
	for _, name := range []string{
		"sim.events_dispatched", "kernel.syscalls", "kernel.context_switches",
		"sampling.kernel_samples", "sampling.interrupt_samples",
	} {
		var sum uint64
		for _, r := range traced {
			sum += r.counters[name]
		}
		rep.set(name, float64(sum), "count")
	}
	f12, f13, f7 := byName["fig12"], byName["fig13"], byName["fig7"]
	rep.set("sim.host_ns_per_event",
		float64((f12.wall+f13.wall).Nanoseconds())/
			float64(f12.counters["sim.events_dispatched"]+f13.counters["sim.events_dispatched"]), "ns")
	for _, name := range matrixExps {
		rep.set("exp."+name+".matrix_cells", float64(byName[name].counters["distance.matrix.cells"]), "count")
	}
	rep.set("exp.fig7.ns_per_cell",
		float64(f7.wall.Nanoseconds())/float64(f7.counters["distance.matrix.cells"]), "ns")
	rep.set("repro.trace_overhead_pct", 100*(tracedWall.Seconds()/plainWall.Seconds()-1), "%")
	return nil
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
