package cpu_test

import (
	"fmt"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// BenchmarkCluster times the scheduled multi-tenant path end to end: four
// h264ref tenants (distinct randomization epochs) time-sharing two cores
// through the quantum scheduler, so every dispatch pays the real switch-in
// machinery (DRC/iTLB flush; each tenant keeps its own warm block cache)
// and every access goes through the per-tenant physical page tag and the
// shared L2. The ns/instr metric is the multicore analog of the pipeline
// budget in BENCH_pipeline.json; scripts/bench_multicore.sh archives it in
// BENCH_multicore.json and holds it within 1.5x of the pinned
// single-core execute figure.
//
//	go test ./internal/cpu -bench BenchmarkCluster -benchtime 3x
func BenchmarkCluster(b *testing.B) {
	const (
		cores   = 2
		tenants = 4
		cap     = 60_000
	)
	w := workloads.MustByName("h264ref", 1)
	for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeVCFR} {
		b.Run(fmt.Sprint(mode), func(b *testing.B) {
			procs := make([]cpu.ClusterProc, tenants)
			for i := range procs {
				res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 42 + int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				img, trans, randRA := mode.Deploy(res)
				procs[i] = cpu.ClusterProc{Img: img, Trans: trans, RandRA: randRA, Input: w.Input}
			}
			b.ResetTimer()
			var insts uint64
			for i := 0; i < b.N; i++ {
				cl, err := cpu.NewScheduledCluster(cpu.DefaultConfig(mode), cpu.SchedConfig{Cores: cores}, procs)
				if err != nil {
					b.Fatal(err)
				}
				results, err := cl.Run(cap)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					insts += r.Stats.Instructions
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/instr")
		})
	}
}
