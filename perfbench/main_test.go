package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/verify"
)

// tinyScale keeps every registry run short while its cells still have
// committed golden entries at the golden seed. The serve and fleet windows
// keep their full length (about a second each), so they still hold
// compaction-only and merge ticks.
const tinyScale = 0.1

const corpusRoot = "../internal/verify/testdata"

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, trace bool, corpus string) *report {
	t.Helper()
	rep, err := run(options{workload: workload, seed: goldenSeed, seconds: 0.1, trace: trace, scale: tinyScale, corpus: corpus})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return rep
}

// TestEmitsEveryMetric runs each workload untraced, and the traced run
// once, and checks every metric BENCHMARK.json names is emitted with its
// unit and the runs pass their correctness checks.
func TestEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	check := func(rep *report, name, unit string) {
		t.Helper()
		m, ok := rep.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for _, w := range spec.Workloads {
		rep := tinyRun(t, w.Name, false, corpusRoot)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, rep.Correct, rep.Attempted, rep.Failed)
		}
		for _, m := range spec.EndToEnd {
			check(rep, m.Name, m.Unit)
		}
		if len(rep.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", w.Name, len(rep.Metrics), len(spec.EndToEnd))
		}
	}
	rep := tinyRun(t, spec.Workloads[0].Name, true, corpusRoot)
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("traced run: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
	for _, m := range spec.PerLayer {
		check(rep, m.Name, m.Unit)
	}
	if len(rep.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced run: %d metrics emitted, BENCHMARK.json names %d", len(rep.Metrics), len(spec.PerLayer))
	}
}

// TestPerturbedGoldenFails changes one line of one committed golden entry
// a workload checks and expects that workload's run to report the
// mismatch: a registry cell at the run's scale for repro-full, and the
// smoke-tier serve and fleet cells every fleet-ease run checks after its
// timed repetitions.
func TestPerturbedGoldenFails(t *testing.T) {
	for _, tc := range []struct {
		workload string
		cell     verify.Cell
	}{
		{"repro-full", verify.Cell{Experiment: "fig2", Seed: goldenSeed, Scale: tinyScale}},
		{"fleet-ease", verify.Cell{Experiment: "serve", Seed: goldenSeed, Scale: smokeScale}},
		{"fleet-ease", verify.Cell{Experiment: "fleet", Seed: goldenSeed, Scale: smokeScale}},
	} {
		t.Run(tc.workload+"_"+tc.cell.Experiment, func(t *testing.T) {
			dir := perturbedCorpus(t, tc.cell)
			rep := tinyRun(t, tc.workload, false, dir)
			if rep.Correct || rep.Failed == 0 {
				t.Fatalf("perturbed %s passed: correct=%v failed=%d", tc.cell, rep.Correct, rep.Failed)
			}
		})
	}
}

// perturbedCorpus copies both committed tiers into a temporary directory,
// appending a digit to the first value of cell's smoke-tier entry.
func perturbedCorpus(t *testing.T, cell verify.Cell) string {
	t.Helper()
	dir := t.TempDir()
	found := false
	for _, tier := range []string{"golden", "golden-full"} {
		c, err := verify.LoadCorpus(filepath.Join(corpusRoot, tier))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range c.Keys() {
			g := c.Entries[k]
			if tier == "golden" && g.Cell == cell {
				g.Lines[0].Value += "0"
				found = true
			}
			if err := verify.WriteGolden(filepath.Join(dir, tier), g.Cell, g.Lines); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !found {
		t.Fatalf("no committed entry for %s", cell)
	}
	return dir
}
