// Package distance implements the request differencing measures of
// Section 4.1: the L1 distance with an unequal-length penalty (Equation 2),
// classic dynamic time warping (Equation 3), the paper's enhancement of DTW
// with an additional penalty on asynchronous warp steps, Levenshtein string
// edit distance over system call sequences (the Magpie approach), and the
// difference of whole-request average metric values (the paper's earlier
// signature work).
package distance

import (
	"math"
	"sort"
	"sync"
)

// Measure quantifies the difference between two requests' time-ordered
// metric value sequences (resampled to fixed-length periods).
type Measure interface {
	// Distance returns a non-negative dissimilarity; 0 for identical
	// sequences.
	Distance(x, y []float64) float64
	// Name identifies the measure in reports.
	Name() string
}

// L1 is Equation 2: element-wise absolute difference over the common
// prefix plus Penalty for each unmatched trailing element. The paper sets
// the penalty to a peak-level (99-percentile) metric difference for the
// application.
type L1 struct {
	Penalty float64
}

// Name implements Measure.
func (L1) Name() string { return "L1" }

// Distance implements Measure. Complexity O(max(m,n)).
func (d L1) Distance(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Abs(x[i] - y[i])
	}
	return sum + float64(len(x)+len(y)-2*n)*d.Penalty
}

// DTW is the dynamic time warping distance (Equation 3): the minimum, over
// all valid warp paths, of the summed metric differences at the two
// pointers, where a warp step advances both pointers (synchronous) or one
// (asynchronous). AsyncPenalty, when positive, is added per asynchronous
// step — the paper's enhancement that prevents under-estimating request
// differences through no-cost time shifting. Complexity O(m·n), or O(m·w)
// when a Sakoe-Chiba band of width w constrains the warp path.
type DTW struct {
	AsyncPenalty float64
	// Window, when positive, restricts warp paths to a Sakoe-Chiba band
	// |i−j| ≤ max(Window, |m−n|) around the diagonal, cutting the cost per
	// pair from O(m·n) to O(m·w). Paths outside the band are forbidden, so
	// the result is an upper bound on the unconstrained distance — and
	// exactly equal to it whenever the band covers the full grid
	// (Window ≥ max(m,n)−1). Zero or negative means unconstrained.
	Window int
}

// Name implements Measure.
func (d DTW) Name() string {
	if d.AsyncPenalty > 0 {
		return "DTW+asynchrony-penalty"
	}
	return "DTW"
}

// dtwScratch holds the two rolling DP rows so repeated Distance calls (the
// pairwise-matrix inner loop) allocate nothing.
type dtwScratch struct {
	prev, cur []float64
}

var dtwPool = sync.Pool{New: func() any { return new(dtwScratch) }}

func (s *dtwScratch) rows(n int) (prev, cur []float64) {
	if cap(s.prev) < n {
		s.prev = make([]float64, n)
		s.cur = make([]float64, n)
	}
	return s.prev[:n:n], s.cur[:n:n]
}

// Distance implements Measure.
func (d DTW) Distance(x, y []float64) float64 {
	m, n := len(x), len(y)
	switch {
	case m == 0 && n == 0:
		return 0
	case m == 0:
		// Every element of the non-empty side is consumed by an
		// asynchronous step against nothing: pay its magnitude (the metric
		// difference against an implicit zero) plus the per-step penalty,
		// consistent with the warp-path definition. Without the magnitude
		// term a zero penalty would declare any request identical to the
		// empty sequence.
		return sumAbs(y) + float64(n)*d.AsyncPenalty
	case n == 0:
		return sumAbs(x) + float64(m)*d.AsyncPenalty
	}
	// dp[j] holds the best path cost reaching (i, j); rolling rows keep
	// memory O(n). The rows come from a pool so the matrix engine's inner
	// loop allocates nothing.
	s := dtwPool.Get().(*dtwScratch)
	prev, cur := s.rows(n)
	if d.Window > 0 {
		v := d.banded(x, y, prev, cur)
		dtwPool.Put(s)
		return v
	}
	prev[0] = math.Abs(x[0] - y[0])
	for j := 1; j < n; j++ {
		prev[j] = prev[j-1] + math.Abs(x[0]-y[j]) + d.AsyncPenalty
	}
	for i := 1; i < m; i++ {
		cur[0] = prev[0] + math.Abs(x[i]-y[0]) + d.AsyncPenalty
		for j := 1; j < n; j++ {
			diff := math.Abs(x[i] - y[j])
			best := prev[j-1] + diff // synchronous step
			if alt := prev[j] + diff + d.AsyncPenalty; alt < best {
				best = alt // advance x only
			}
			if alt := cur[j-1] + diff + d.AsyncPenalty; alt < best {
				best = alt // advance y only
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	v := prev[n-1]
	dtwPool.Put(s)
	return v
}

// banded fills only the Sakoe-Chiba band of each DP row. Cells outside the
// band are unreachable; an +Inf sentinel just past each row's band keeps
// the next row's out-of-band reads from seeing stale values. Within the
// band the arithmetic and evaluation order match the unconstrained loop
// exactly, so a band covering the whole grid is bit-identical to it.
func (d DTW) banded(x, y, prev, cur []float64) float64 {
	m, n := len(x), len(y)
	w := d.Window
	if diff := m - n; diff > w || -diff > w {
		// A warp path must bridge the length difference; widen to keep one
		// reachable.
		if diff < 0 {
			diff = -diff
		}
		w = diff
	}
	hi := w
	if hi > n-1 {
		hi = n - 1
	}
	prev[0] = math.Abs(x[0] - y[0])
	for j := 1; j <= hi; j++ {
		prev[j] = prev[j-1] + math.Abs(x[0]-y[j]) + d.AsyncPenalty
	}
	if hi+1 < n {
		prev[hi+1] = math.Inf(1)
	}
	for i := 1; i < m; i++ {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		hi = i + w
		if hi > n-1 {
			hi = n - 1
		}
		j := lo
		if lo == 0 {
			cur[0] = prev[0] + math.Abs(x[i]-y[0]) + d.AsyncPenalty
			j = 1
		} else {
			// Left band edge: the advance-y predecessor (i, lo−1) is
			// outside the band.
			diff := math.Abs(x[i] - y[lo])
			best := prev[lo-1] + diff
			if alt := prev[lo] + diff + d.AsyncPenalty; alt < best {
				best = alt
			}
			cur[lo] = best
			j = lo + 1
		}
		for ; j <= hi; j++ {
			diff := math.Abs(x[i] - y[j])
			best := prev[j-1] + diff // synchronous step
			if alt := prev[j] + diff + d.AsyncPenalty; alt < best {
				best = alt // advance x only
			}
			if alt := cur[j-1] + diff + d.AsyncPenalty; alt < best {
				best = alt // advance y only
			}
			cur[j] = best
		}
		if hi+1 < n {
			cur[hi+1] = math.Inf(1)
		}
		prev, cur = cur, prev
	}
	return prev[n-1]
}

func sumAbs(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += math.Abs(v)
	}
	return s
}

// AverageDiff compares only whole-request average metric values — the
// paper's prior average-value request signatures [27]. Inputs are treated
// as equal-length-period sequences whose mean is the request average.
type AverageDiff struct{}

// Name implements Measure.
func (AverageDiff) Name() string { return "average-metric" }

// Distance implements Measure.
func (AverageDiff) Distance(x, y []float64) float64 {
	return math.Abs(mean(x) - mean(y))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Levenshtein is the string edit distance between two system call name
// sequences: the minimum number of insertions, deletions, or substitutions
// transforming one into the other (the Magpie software-event approach). It
// runs the same bit-parallel kernel as SymbolIndex.Distance over a
// two-sequence index; callers comparing a whole population should build
// one SymbolIndex instead.
func Levenshtein(a, b []string) int {
	return NewSymbolIndex([][]string{a, b}).Distance(0, 1)
}

// PeakPenalty computes the paper's penalty setting: the 99-percentile of
// the distribution of metric differences at two arbitrary points of
// application execution, estimated from the pooled resampled values of a
// request population by pairing values at a fixed stride.
func PeakPenalty(sequences [][]float64) float64 {
	var diffs []float64
	pool := make([]float64, 0, 256)
	for _, s := range sequences {
		pool = append(pool, s...)
	}
	if len(pool) < 2 {
		return 0
	}
	// Pair each value with one at a large co-prime stride: a deterministic
	// stand-in for "two arbitrary points". The stride must be co-prime with
	// the pool length or i → (i+stride) mod len cycles over a strict subset
	// of offsets (len 6, stride 4 visits only even gaps); start from the
	// half-length point and take the nearest co-prime stride.
	stride := nearestCoprime(len(pool)/2+1, len(pool))
	for i := range pool {
		j := (i + stride) % len(pool)
		diffs = append(diffs, math.Abs(pool[i]-pool[j]))
	}
	return percentile(diffs, 99)
}

// nearestCoprime returns the stride closest to want in [1, n) that is
// co-prime with n (ties prefer the smaller stride). n must be ≥ 2.
func nearestCoprime(want, n int) int {
	if want < 1 {
		want = 1
	}
	if want >= n {
		want = n - 1
	}
	for d := 0; ; d++ {
		if lo := want - d; lo >= 1 && gcd(lo, n) == 1 {
			return lo
		}
		if hi := want + d; hi < n && gcd(hi, n) == 1 {
			return hi
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
