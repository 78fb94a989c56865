package distance

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchSeq(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * 5
	}
	return out
}

func benchNames(n int, seed int64) []string {
	words := []string{"read", "write", "poll", "stat", "open", "lseek", "writev", "sendto"}
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = words[r.Intn(len(words))]
	}
	return out
}

func BenchmarkL1_100(b *testing.B) {
	x, y := benchSeq(100, 1), benchSeq(100, 2)
	d := L1{Penalty: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkDTW_100(b *testing.B) {
	x, y := benchSeq(100, 1), benchSeq(100, 2)
	d := DTW{AsyncPenalty: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkDTW_1000(b *testing.B) {
	x, y := benchSeq(1000, 1), benchSeq(1000, 2)
	d := DTW{AsyncPenalty: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkDTWBanded_1000(b *testing.B) {
	x, y := benchSeq(1000, 1), benchSeq(1000, 2)
	d := DTW{AsyncPenalty: 0.5, Window: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkMatrix100x64(b *testing.B) {
	seqs := make([][]float64, 100)
	for i := range seqs {
		seqs[i] = benchSeq(64, int64(i))
	}
	d := DTW{AsyncPenalty: 0.5}
	for _, bench := range []struct {
		name string
		opt  MatrixOptions
	}{
		{"serial", MatrixOptions{Workers: 1}},
		{"parallel", MatrixOptions{}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewMatrixFromSequences(seqs, d, bench.opt)
			}
		})
	}
}

func BenchmarkLevenshtein_300(b *testing.B) {
	x, y := benchNames(300, 1), benchNames(300, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Levenshtein(x, y)
	}
}

// BenchmarkLevenshteinMatrix is shaped like Figure 7's syscall matrix: one
// application's 600 requests, each at most 300 calls over a 23-name
// alphabet, indexed once and filled through the parallel engine. It
// reports the cost per filled cell alongside ns/op.
func BenchmarkLevenshteinMatrix(b *testing.B) {
	words := make([]string, 23)
	for i := range words {
		words[i] = "sys" + strconv.Itoa(i)
	}
	r := rand.New(rand.NewSource(1))
	seqs := make([][]string, 600)
	for i := range seqs {
		seqs[i] = make([]string, 1+r.Intn(300))
		for k := range seqs[i] {
			seqs[i][k] = words[r.Intn(len(words))]
		}
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		x := NewSymbolIndex(seqs)
		NewMatrix(len(seqs), func(i, j int) float64 {
			return float64(x.Distance(i, j))
		}, MatrixOptions{})
	}
	cells := len(seqs) * (len(seqs) - 1) / 2
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}

func BenchmarkPeakPenalty(b *testing.B) {
	seqs := make([][]float64, 50)
	for i := range seqs {
		seqs[i] = benchSeq(40, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PeakPenalty(seqs)
	}
}
