// Command perfbench is the repository benchmark. It drives the program's
// public entry points on one workload, checks that the outputs are
// correct, and prints every metric by name and unit; the last line of its
// standard output is one JSON object (see README.md).
//
//	perfbench -workload repro-full|fleet-ease -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics of the named workload.
// With -trace 1 it runs the registry, the single-node engine and the fleet
// twice each, untraced and traced, and reports the per-layer metrics. Each
// layer is measured on the work that exercises it, so -workload only has
// to be valid there: one traced call, with either workload name, gives the
// whole per-layer table.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// goldenSeed is the seed whose registry outputs are checked against the
// committed golden corpus. Seed 2 is the held-out seed a performance claim
// must also hold on.
const goldenSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale is the registry scale: 1 is the benchmark, smaller values are
	// for smoke tests. The serve and fleet windows do not depend on it.
	scale float64
	// corpus holds the golden directories golden/ (smoke tier) and
	// golden-full/ (scale 1).
	corpus string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line. Attempted counts the operations the run
// checked (registry experiments, or serve/fleet arrivals in timed
// windows); Failed counts those whose check failed. Shedding is the
// admission policy's deterministic outcome, not a failure: the traced run
// reports it as <service>.shed_frac.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed operation: the run will exit non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "repro-full or fleet-ease")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	o.corpus = "internal/verify/testdata"

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", n)
			os.Exit(2)
		}
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func run(o options) (*report, error) {
	switch o.workload {
	case "repro-full", "fleet-ease":
	default:
		return nil, fmt.Errorf("unknown -workload %q (valid: repro-full, fleet-ease)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	switch {
	case o.trace:
		return rep, runTraced(o, rep)
	case o.workload == "repro-full":
		return rep, reproEndToEnd(o, rep)
	default:
		return rep, serviceEndToEnd(o, fleetSpec(o.seed), rep)
	}
}

// runTraced measures every layer on the workload that exercises it: the
// registry pass, then the serve and fleet tick loops, each once untraced
// and once traced. It writes the benchmark's span tree to stdout.
func runTraced(o options, rep *report) error {
	tr := newTracer()
	if err := reproTraced(o, rep, tr); err != nil {
		return err
	}
	for _, spec := range []*serviceSpec{serveSpec(o.seed), fleetSpec(o.seed)} {
		if err := serviceTraced(o, spec, rep, tr); err != nil {
			return err
		}
	}
	tr.write(os.Stdout)
	return nil
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
