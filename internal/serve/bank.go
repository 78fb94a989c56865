// The sliding-window signature bank, shared by the single-node engine and
// every fleet node. A windowBank owns a ring of recent completions, the
// pooled buffers that rematerialize their full patterns from the template
// library, the k-medoids machinery that compacts them into a signature
// bank, and the anomaly threshold recalibrated against that bank. Every
// buffer is sized at construction, so a steady-state compaction allocates
// nothing. Callers keep only their own steps around it: the engine's
// matcher rebuild and template-cache refresh, the fleet's per-node RNG
// seeds and bank merges.
package serve

import (
	"math"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/distance"
	"repro/internal/metrics"
	"repro/internal/signature"
	"repro/internal/sim"
	"repro/internal/workload"
)

// minWindowFill is the smallest window occupancy worth compacting:
// clustering a handful of requests would thrash the bank.
const minWindowFill = 32

// winRec is one completed request in the sliding window — the compact form
// from which compaction rematerializes the full pattern (a pure function
// of these fields and the template library).
type winRec struct {
	app    int32
	tmpl   int32
	cohort int32 // arrival cohort (always 0 on the single-node engine)
	anom   bool
	drift  float64
	cpuNs  float64
}

// patternSet is a pooled set of candidate patterns, each with the solo CPU
// time and app index of the request it stands for, plus the k-medoids
// machinery that reduces the set to bank medoids. A windowBank's set is
// its materialized window; the fleet's merge set is every node bank laid
// end to end.
type patternSet struct {
	pats [][]float64
	cpu  []float64
	app  []int32
	n    int // candidates in use
	k    int // medoids wanted (fewer when n < k)

	dm distance.Matrix
	// pairFn is bound once so the per-compaction Fill allocates no closure.
	pairFn distance.PairFunc
	csc    cluster.Scratch
	rng    *sim.RNG
	sorted []float64 // medianCPU scratch
}

// init sizes the set for up to size candidates of at most maxLen buckets.
// The set must not be copied afterwards: pairFn points back at it.
func (s *patternSet) init(size, k, maxLen int) {
	s.pats = make([][]float64, size)
	for i := range s.pats {
		s.pats[i] = make([]float64, 0, maxLen)
	}
	s.cpu = make([]float64, size)
	s.app = make([]int32, size)
	s.k = k
	s.rng = sim.NewRNG(0)
	s.sorted = make([]float64, 0, size)
	s.pairFn = func(i, j int) float64 {
		return signature.PatternDistance(s.pats[i], s.pats[j])
	}
}

// add appends a copy of one candidate, reporting false when the set is
// full.
func (s *patternSet) add(pat []float64, cpuNs float64, app int32) bool {
	if s.n == len(s.pats) {
		return false
	}
	s.pats[s.n] = append(s.pats[s.n][:0], pat...)
	s.cpu[s.n], s.app[s.n] = cpuNs, app
	s.n++
	return true
}

// medoids clusters the set with k-medoids over a pooled distance matrix,
// the RNG reseeded to seed, and returns the medoid indices in cluster
// order (valid until the next call). One fill worker: compaction runs in
// the caller's serial phase, and spawning a pool would allocate.
func (s *patternSet) medoids(seed int64) []int {
	s.dm.Fill(s.n, s.pairFn, distance.MatrixOptions{Workers: 1})
	s.rng.Reseed(seed)
	k := s.k
	if k > s.n {
		k = s.n
	}
	return s.csc.KMedoids(&s.dm, cluster.Config{K: k, Rand: s.rng}).Medoids
}

// medianCPU is the median solo CPU time over the set — the paper's bank
// high-usage threshold.
func (s *patternSet) medianCPU() float64 {
	s.sorted = append(s.sorted[:0], s.cpu[:s.n]...)
	return medianInPlace(s.sorted)
}

// windowBank is one sliding window and the signature bank compacted from
// it.
type windowBank struct {
	tmpl     [][]template
	apps     []workload.StreamApp
	quantile float64
	headroom float64

	// Completion ring: win[winHead] is the next slot written.
	win     []winRec
	winLen  int
	winHead int

	set     patternSet  // the materialized window
	patBufs [][]float64 // per-entry storage of the compacted bank
	scores  []float64

	bank *signature.Bank
	// threshold is the calibrated anomaly threshold on identification
	// scores (+Inf until the first calibration).
	threshold float64

	compactions, recalibrations uint64
}

// init sizes the bank from the window, bank-size, pattern-length, and
// calibration knobs of cfg, then seeds it from the template library. The
// bank must not be copied afterwards.
func (b *windowBank) init(cfg Config, tmpl [][]template) {
	b.tmpl = tmpl
	b.apps = cfg.Stream.Apps
	b.quantile = cfg.CalibrationQuantile
	b.headroom = cfg.CalibrationHeadroom
	b.win = make([]winRec, cfg.WindowSize)
	b.set.init(cfg.WindowSize, cfg.BankK, cfg.MaxPatternLen)
	b.patBufs = make([][]float64, cfg.BankK)
	for i := range b.patBufs {
		b.patBufs[i] = make([]float64, 0, cfg.MaxPatternLen)
	}
	b.scores = make([]float64, 0, cfg.WindowSize)
	b.seed()
}

// seed installs the template libraries themselves as the bank — every
// template of every mix app, in app-then-template order — so
// identification and CPU prediction work from tick zero. The anomaly
// threshold stays +Inf until the first window calibration.
func (b *windowBank) seed() {
	b.bank = &signature.Bank{Metric: metrics.L2RefsPerIns}
	b.threshold = math.Inf(1)
	b.scores = b.scores[:0]
	for ai := range b.tmpl {
		for t := range b.tmpl[ai] {
			tm := &b.tmpl[ai][t]
			b.bank.Entries = append(b.bank.Entries, signature.Entry{
				Pattern:   tm.pattern,
				Average:   meanOf(tm.pattern),
				CPUTimeNs: tm.cpuNs,
				Type:      b.apps[ai].Name,
			})
			b.scores = append(b.scores, tm.cpuNs)
		}
	}
	b.bank.ThresholdNs = medianInPlace(b.scores)
	b.scores = b.scores[:0]
}

// push appends completions to the ring, overwriting the oldest once full.
func (b *windowBank) push(recs []winRec) {
	for _, rec := range recs {
		b.win[b.winHead] = rec
		b.winHead++
		if b.winHead == len(b.win) {
			b.winHead = 0
		}
		if b.winLen < len(b.win) {
			b.winLen++
		}
	}
}

// at returns window record i, i ∈ [0, winLen), oldest first.
func (b *windowBank) at(i int) *winRec {
	idx := b.winHead - b.winLen + i
	if idx < 0 {
		idx += len(b.win)
	}
	return &b.win[idx]
}

// materialize rematerializes every window record's full pattern into the
// pooled set, oldest first.
func (b *windowBank) materialize() {
	s := &b.set
	s.n = b.winLen
	for i := 0; i < s.n; i++ {
		rec := b.at(i)
		tmpl := b.tmpl[rec.app][rec.tmpl].pattern
		buf := s.pats[i][:0]
		for j := range tmpl {
			buf = append(buf, patternValue(tmpl, j, rec.drift, rec.anom))
		}
		s.pats[i] = buf
		s.cpu[i], s.app[i] = rec.cpuNs, rec.app
	}
}

// compact runs one bank rebuild and recalibration cycle, the k-medoids
// RNG seeded with seed, and reports whether the bank was rebuilt. A window
// below minWindowFill skips the rebuild but still recalibrates, so
// thresholds track drift even under light traffic.
func (b *windowBank) compact(seed int64) bool {
	if b.winLen < minWindowFill {
		if b.winLen > 0 {
			b.recalibrate()
		}
		return false
	}
	b.materialize()
	b.install(&b.set, b.set.medoids(seed))
	b.rescore()
	b.compactions++
	return true
}

// install rebuilds the bank from src's medoids in cluster order — patterns
// copied into per-entry buffers, CPU time and app carried over — with the
// bank threshold at the median CPU time over all of src.
func (b *windowBank) install(src *patternSet, medoids []int) {
	b.bank.Entries = b.bank.Entries[:0]
	for c, m := range medoids {
		b.patBufs[c] = append(b.patBufs[c][:0], src.pats[m]...)
		b.bank.Entries = append(b.bank.Entries, signature.Entry{
			Pattern:   b.patBufs[c],
			Average:   meanOf(b.patBufs[c]),
			CPUTimeNs: src.cpu[m],
			Type:      b.apps[src.app[m]].Name,
		})
	}
	b.bank.ThresholdNs = src.medianCPU()
}

// recalibrate rematerializes the window and rescores it.
func (b *windowBank) recalibrate() {
	b.materialize()
	b.rescore()
}

// rescore scores the materialized window against the current bank and
// resets the anomaly threshold to the calibration quantile of those
// scores.
func (b *windowBank) rescore() {
	s := &b.set
	b.scores = b.scores[:0]
	for i := 0; i < s.n; i++ {
		_, dist := b.bank.IdentifyPatternScored(s.pats[i])
		b.scores = append(b.scores, dist/float64(len(s.pats[i])))
	}
	b.threshold = anomaly.Calibrate(b.scores, b.quantile, b.headroom)
	b.recalibrations++
}

// meanOf returns the arithmetic mean (0 for an empty slice).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// medianInPlace sorts xs and returns its median (0 for empty) — the
// paper's bank threshold, computed without the stats package's copy.
func medianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
