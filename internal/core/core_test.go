package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/sched"
	"repro/internal/signature"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestRunValidation(t *testing.T) {
	web := workload.NewWebServer()
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"missing app", Options{Requests: 1}, ErrNoApp},
		{"zero requests", Options{App: web}, ErrNoRequests},
		{"negative requests", Options{App: web, Requests: -3}, ErrNoRequests},
		{"negative concurrency", Options{App: web, Requests: 1, Concurrency: -2}, ErrBadConcurrency},
		{"policy without threshold", Options{App: web, Requests: 1,
			PolicyName: "contention-easing"}, ErrBadThreshold},
		{"metering without threshold", Options{App: web, Requests: 1,
			MeterCoExecution: true}, ErrBadThreshold},
		{"unknown policy", Options{App: web, Requests: 1,
			PolicyName: "fifo", UsageThreshold: 1}, ErrUnknownPolicy},
	}
	for _, tc := range cases {
		_, err := Run(tc.opts)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, not errors.Is %v", tc.name, err, tc.want)
		}
	}
}

// TestRunRegistryPolicyThreshold: every registered policy that classifies
// high usage refuses a missing threshold with ErrBadThreshold, and every
// other policy runs without one. A signature bank is supplied throughout,
// so the threshold is the only thing a policy can be missing.
func TestRunRegistryPolicyThreshold(t *testing.T) {
	app := workload.NewWebServer()
	calib, err := Run(Options{App: app, Requests: 8, Sampling: DefaultSampling(app), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bank := signature.Build(calib.Store.Traces, metrics.L2RefsPerIns, BucketFor(app.Name()), 8)
	for _, name := range sched.PolicyNames() {
		f, _ := sched.LookupPolicy(name)
		_, err := Run(Options{App: app, Requests: 4, Sampling: DefaultSampling(app),
			PolicyName: name, SignatureBank: bank, Seed: 2})
		switch {
		case f.NeedsThreshold && !errors.Is(err, ErrBadThreshold):
			t.Errorf("%s without threshold: err = %v, want ErrBadThreshold", name, err)
		case !f.NeedsThreshold && err != nil:
			t.Errorf("%s without threshold: %v", name, err)
		}
		if _, err := Run(Options{App: app, Requests: 4, Sampling: DefaultSampling(app),
			PolicyName: name, SignatureBank: bank, UsageThreshold: 1e-3, Seed: 2}); err != nil {
			t.Errorf("%s with threshold: %v", name, err)
		}
	}
}

func TestRunOptionsApply(t *testing.T) {
	app := workload.NewWebServer()
	col := obs.New("test")
	res, err := Run(Options{App: app, Requests: 5, Seed: 1},
		WithSampling(DefaultSampling(app)), WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples.Total() == 0 {
		t.Fatal("WithSampling not applied: no samples recorded")
	}
	rep := col.Report()
	if len(rep.Spans.Children) != 1 || rep.Spans.Children[0].Name != "run" {
		t.Fatalf("WithObserver not applied: spans = %+v", rep.Spans.Children)
	}
	run := rep.Spans.Children[0]
	var reqNode *obs.SpanReport
	for _, ch := range run.Children {
		if ch.Name == "request" {
			reqNode = ch
		}
	}
	if reqNode == nil || reqNode.Count != 5 {
		t.Fatalf("request spans = %+v, want count 5", reqNode)
	}
	if rep.Sampler == nil || rep.Sampler.OverheadNs <= 0 {
		t.Fatal("sampler overhead accounting missing")
	}
	counters := map[string]uint64{}
	for _, ct := range rep.Counters {
		counters[ct.Name] = ct.Value
	}
	if counters["sim.events_dispatched"] == 0 {
		t.Error("events-dispatched counter missing")
	}
	if counters["kernel.context_switches"] != res.ContextSwitches {
		t.Errorf("context switches: counter %d != result %d",
			counters["kernel.context_switches"], res.ContextSwitches)
	}
	if counters["sampling.kernel_samples"]+counters["sampling.interrupt_samples"] != res.Samples.Total() {
		t.Errorf("sampling counters %d+%d != Counts total %d",
			counters["sampling.kernel_samples"], counters["sampling.interrupt_samples"],
			res.Samples.Total())
	}
}

func TestRunSerialVsConcurrent(t *testing.T) {
	app := workload.NewTPCH()
	serial, err := Run(Options{App: app, Concurrency: 1, Requests: 15,
		Sampling: DefaultSampling(app), Seed: 1}, WithTopology(machine.Homogeneous(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := Run(Options{App: app, Requests: 15,
		Sampling: DefaultSampling(app), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's headline: concurrent execution obfuscates performance;
	// TPCH's peak CPI worsens markedly.
	s90 := stats.Percentile(serial.Store.MetricValues(metrics.CPI), 90)
	c90 := stats.Percentile(conc.Store.MetricValues(metrics.CPI), 90)
	if c90 < s90*1.3 {
		t.Fatalf("4-core 90p CPI %.2f should substantially exceed 1-core %.2f", c90, s90)
	}
}

func TestRunWithContentionEasing(t *testing.T) {
	app := workload.NewTPCH()
	base, err := Run(Options{App: app, Requests: 20, Sampling: DefaultSampling(app), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	threshold := sched.HighUsageThreshold(base.Store, 80)
	eased, err := Run(Options{App: app, Requests: 20, Sampling: DefaultSampling(app),
		PolicyName: "contention-easing", UsageThreshold: threshold,
		MeterCoExecution: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eased.PolicyStats == nil {
		t.Fatal("policy stats missing")
	}
	if eased.Store.Len() != 20 {
		t.Fatalf("traced %d/20", eased.Store.Len())
	}
}

func TestSamplingPresets(t *testing.T) {
	app := workload.NewWebServer()
	d := DefaultSampling(app)
	if d.Period != app.SamplingPeriod() || !d.Compensate {
		t.Fatalf("DefaultSampling = %+v", d)
	}
	s := SyscallSampling(app)
	if s.TbackupInt <= s.TsyscallMin {
		t.Fatal("backup delay must exceed TsyscallMin")
	}
}

func TestBucketFor(t *testing.T) {
	if BucketFor("webserver") >= BucketFor("tpch") {
		t.Fatal("short-request apps need finer buckets")
	}
	if BucketFor("unknown") <= 0 {
		t.Fatal("unknown app should get a sane default")
	}
}

func TestModelerDerivesPenalty(t *testing.T) {
	app := workload.NewTPCC()
	res, err := Run(Options{App: app, Requests: 30, Sampling: DefaultSampling(app), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModeler("tpcc", res.Store.Traces)
	if m.AsyncPenalty <= 0 {
		t.Fatalf("penalty not derived: %v", m.AsyncPenalty)
	}
	if m.L1().Name() == "" || m.DTW().Name() == "" || m.DTWPenalized().Name() == "" {
		t.Fatal("measure constructors broken")
	}
}

// Recording the system call stream only writes down calls the simulation
// issues anyway: for every application, under both the periodic and the
// syscall-triggered presets, a recording run and a non-recording run must
// produce identical periods, sample counts, kernel totals, and wall time.
// This is what lets every experiment but Figures 4 and 7 run without it.
func TestRecordingSyscallsOnlyObserves(t *testing.T) {
	for _, app := range workload.All() {
		for _, preset := range []func(workload.App) sampling.Config{DefaultSampling, SyscallSampling} {
			run := func(record bool) *Result {
				scfg := preset(app)
				scfg.RecordSyscallEvents = record
				res, err := Run(Options{App: app, Requests: 6, Sampling: scfg, Seed: 5})
				if err != nil {
					t.Fatalf("%s: %v", app.Name(), err)
				}
				return res
			}
			on, off := run(true), run(false)
			name := app.Name() + "/" + preset(app).Mode.String()
			if on.Samples != off.Samples || on.ContextSwitches != off.ContextSwitches ||
				on.Syscalls != off.Syscalls || on.WallTime != off.WallTime {
				t.Fatalf("%s: recording changed the run: samples %+v vs %+v, switches %d vs %d, syscalls %d vs %d, wall %v vs %v",
					name, on.Samples, off.Samples, on.ContextSwitches, off.ContextSwitches,
					on.Syscalls, off.Syscalls, on.WallTime, off.WallTime)
			}
			if on.Store.Len() != off.Store.Len() {
				t.Fatalf("%s: %d traces recording vs %d not", name, on.Store.Len(), off.Store.Len())
			}
			var recorded uint64
			for i, a := range on.Store.Traces {
				b := off.Store.Traces[i]
				if a.ID != b.ID || a.Start != b.Start || a.End != b.End || !reflect.DeepEqual(a.Periods, b.Periods) {
					t.Fatalf("%s: trace %d differs between recording and not", name, i)
				}
				if len(b.Syscalls) != 0 {
					t.Fatalf("%s: non-recording trace %d kept %d syscalls", name, i, len(b.Syscalls))
				}
				recorded += uint64(len(a.Syscalls))
			}
			// Every call the kernel handled is in exactly one recorded stream.
			if recorded != on.Syscalls {
				t.Fatalf("%s: recorded %d syscall events of %d issued", name, recorded, on.Syscalls)
			}
		}
	}
}
