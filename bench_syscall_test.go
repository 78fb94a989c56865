// BenchmarkSyscallPath times the kernel breakpoint/syscall path and the
// sampling tracker on the registry's heaviest load: TPCH, whose requests
// issue over ten thousand system calls each and make up most of the
// registry's simulated time.
//
// Run with:
//
//	go test -bench BenchmarkSyscallPath -benchmem
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkSyscallPath runs one 120-request TPCH run (the modeling
// experiments' size at scale 1) at seed 1 under the paper's periodic
// sampling. /record keeps every request's system call stream, as Figures 4
// and 7 do; /discard is how every other run in the registry samples.
// ns/syscall is the run's wall time per simulated system call, and B/op
// (with -benchmem) shows what recording the stream costs in memory.
func BenchmarkSyscallPath(b *testing.B) {
	app := workload.NewTPCH()
	for _, mode := range []struct {
		name   string
		record bool
	}{{"record", true}, {"discard", false}} {
		b.Run(mode.name, func(b *testing.B) {
			scfg := core.DefaultSampling(app)
			scfg.RecordSyscallEvents = mode.record
			var syscalls uint64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Options{App: app, Requests: 120, Sampling: scfg, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				syscalls += res.Syscalls
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(syscalls), "ns/syscall")
		})
	}
}
