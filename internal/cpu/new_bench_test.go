package cpu_test

import (
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// BenchmarkNew is the fixed cost of one pipeline: cpu.New builds the whole
// memory hierarchy, the predictors, the iTLB and (per mode) the DRC, which
// every fault injection, attack fire and short run job pays before its
// first instruction. The per-mode cases never Release, so each New
// allocates that storage; the recycled case Releases every VCFR pipeline,
// so each New resets its predecessor's storage instead, as the harness,
// fault and attack runs do.
//
//	go test ./internal/cpu -run '^$' -bench '^BenchmarkNew'
func BenchmarkNew(b *testing.B) {
	w := workloads.MustByName("h264ref", 1)
	res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pipeFor(b, res, mode, w.Input, nil)
			}
		})
	}
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipeFor(b, res, cpu.ModeVCFR, w.Input, nil).Release()
		}
	})
}
