package distance_test

import (
	"fmt"

	"repro/internal/distance"
)

// The motivating case of the paper's Figure 6: two inherently similar
// requests whose executions drift apart by one period. The L1 distance
// over-estimates their difference; plain dynamic time warping absorbs the
// shift for free (under-estimating); the paper's asynchrony penalty sits
// between the two.
func Example() {
	a := []float64{1, 1, 5, 1, 1, 1}
	b := []float64{1, 1, 1, 5, 1, 1} // the same peak, shifted one period

	l1 := distance.L1{Penalty: 4}
	dtw := distance.DTW{}
	dtwPen := distance.DTW{AsyncPenalty: 0.5}

	fmt.Printf("L1:          %.1f\n", l1.Distance(a, b))
	fmt.Printf("DTW:         %.1f\n", dtw.Distance(a, b))
	fmt.Printf("DTW+penalty: %.1f\n", dtwPen.Distance(a, b))
	// Output:
	// L1:          8.0
	// DTW:         0.0
	// DTW+penalty: 1.0
}

func ExampleLevenshtein() {
	// Magpie-style software-event differencing over system call names.
	a := []string{"poll", "read", "stat", "open", "writev"}
	b := []string{"poll", "read", "open", "writev", "shutdown"}
	fmt.Println(distance.Levenshtein(a, b))
	// Output: 2
}

func ExampleSymbolIndex() {
	// Index a request population once; every pair then compares interned
	// syscall IDs through bitmasks instead of strings.
	seqs := [][]string{
		{"poll", "read", "stat", "open", "writev"},
		{"poll", "read", "open", "writev", "shutdown"},
		{"accept", "read", "writev"},
	}
	x := distance.NewSymbolIndex(seqs)
	fmt.Println(x.Distance(0, 1), x.Distance(0, 2), x.Distance(2, 1))
	// Output: 2 3 3
}
