// Bit-parallel Levenshtein distance: Myers' bit-vector algorithm (JACM
// 1999) in Hyyrö's multi-word block form (2003). The DP column of edit
// distances against a pattern of m symbols is encoded as two bit vectors
// of ±1 vertical deltas, so one text symbol advances the whole column in
// ⌈m/64⌉ word steps. A pair costs O(⌈m/64⌉·n) word operations instead of
// the O(m·n) cell-by-cell recurrence, and the result is the same exact
// integer.

package distance

// stackWords is the longest pattern, in 64-bit words, whose delta vectors
// live in fixed-size stack arrays: patterns of up to 512 symbols compare
// without allocating.
const stackWords = 8

// SymbolIndex is a population of symbol sequences (system call names)
// prepared for repeated Levenshtein comparisons. Names are interned to
// dense IDs, and each sequence carries its pattern-match table, so a pair
// compares IDs through bitmasks and never compares strings. An index is
// immutable after construction and safe for concurrent use, so Distance
// satisfies PairFunc's contract.
type SymbolIndex struct {
	// ids[s] is sequence s as interned symbol IDs.
	ids [][]int32
	// peq[s] is sequence s's pattern-match table, alphabet × words(s)
	// laid out flat: bit k of peq[s][c*words(s)+b] is set iff symbol
	// b·64+k of sequence s has ID c.
	peq [][]uint64
}

// NewSymbolIndex interns the names of seqs and precomputes every
// sequence's pattern-match table, in time linear in the total length plus
// the tables' size (alphabet × Σ⌈len/64⌉ words).
func NewSymbolIndex(seqs [][]string) *SymbolIndex {
	intern := map[string]int32{}
	total, tableWords := 0, 0
	for _, seq := range seqs {
		total += len(seq)
		tableWords += words(len(seq))
	}
	flatIDs := make([]int32, total)
	ids := make([][]int32, len(seqs))
	for s, seq := range seqs {
		row := flatIDs[:len(seq):len(seq)]
		flatIDs = flatIDs[len(seq):]
		for k, name := range seq {
			id, ok := intern[name]
			if !ok {
				id = int32(len(intern))
				intern[name] = id
			}
			row[k] = id
		}
		ids[s] = row
	}
	alphabet := len(intern)
	flat := make([]uint64, alphabet*tableWords)
	peq := make([][]uint64, len(seqs))
	for s, row := range ids {
		w := words(len(row))
		size := alphabet * w
		tab := flat[:size:size]
		flat = flat[size:]
		for k, c := range row {
			tab[int(c)*w+k>>6] |= 1 << (k & 63)
		}
		peq[s] = tab
	}
	return &SymbolIndex{ids: ids, peq: peq}
}

// Distance returns the Levenshtein distance between sequences i and j.
// The shorter sequence is the pattern, so the cost is
// O(⌈min/64⌉·max) word operations.
func (x *SymbolIndex) Distance(i, j int) int {
	if len(x.ids[j]) < len(x.ids[i]) {
		i, j = j, i
	}
	return myers(x.peq[i], len(x.ids[i]), x.ids[j])
}

// words is the number of 64-bit blocks a pattern of m symbols spans.
func words(m int) int { return (m + 63) >> 6 }

// myers returns the edit distance between a pattern of m symbols, given by
// its pattern-match table peq, and text. vp/vn hold the positive/negative
// vertical deltas of the current DP column (bit k: row k+1 minus row k);
// score is the bottom cell D[m][j], advanced by the horizontal delta that
// leaves the last pattern bit.
func myers(peq []uint64, m int, text []int32) int {
	if m == 0 {
		return len(text)
	}
	w := words(m)
	var vpBuf, vnBuf [stackWords]uint64
	var vp, vn []uint64
	if w <= stackWords {
		vp, vn = vpBuf[:w], vnBuf[:w]
	} else {
		buf := make([]uint64, 2*w)
		vp, vn = buf[:w], buf[w:]
	}
	// Column 0 is D[i][0] = i: every vertical delta is +1.
	for b := range vp {
		vp[b] = ^uint64(0)
	}
	last := w - 1
	lastBit := uint((m - 1) & 63)
	score := m
	for _, c := range text {
		eq := peq[int(c)*w : int(c)*w+w]
		// Row 0 is D[0][j] = j, so the top block's carry-in is always +1.
		hin := 1
		// Hyyrö's block step, top block to bottom. hin is the horizontal
		// delta entering the block's top row from the block above, in
		// branch-free form: neg is 1 iff hin = −1, pos is 1 iff hin = +1.
		for b, e := range eq {
			pv, mv := vp[b], vn[b]
			neg, pos := uint64(hin)>>63, uint64(-hin)>>63
			xv := e | mv
			e |= neg
			xh := (((e & pv) + pv) ^ pv) | e
			hp := mv | ^(xh | pv)
			hn := pv & xh
			// The delta leaving the block's bottom row — for the last
			// block, the last pattern row. Bits above it never influence
			// it, since carries and shifts only move upward.
			out := uint(63)
			if b == last {
				out = lastBit
			}
			hin = int(hp>>out&1) - int(hn>>out&1)
			hp = hp<<1 | pos
			hn = hn<<1 | neg
			vp[b] = hn | ^(xv | hp)
			vn[b] = hp & xv
		}
		score += hin
	}
	return score
}
