package fault

import (
	"context"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
)

// BenchmarkCampaign measures end-to-end campaign throughput (clean
// references, then injected runs), reporting injections per second — the
// number that bounds how large a dependability study the simulator can
// host.
func BenchmarkCampaign(b *testing.B) {
	cfg := Config{
		Workloads:  []string{"bzip2"},
		Modes:      []cpu.Mode{cpu.ModeVCFR},
		Injections: 60,
		MaxInsts:   10000,
	}
	r := harness.NewRunner(0)
	var injected uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := RunCampaign(context.Background(), r, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Partial {
			b.Fatal("campaign partial")
		}
		injected += rep.Totals.Injected
	}
	b.ReportMetric(float64(injected)/b.Elapsed().Seconds(), "injections/s")
}

// BenchmarkInjectedRun isolates one injected execution (pipeline build +
// block-cached run around the armed instruction + classification) against
// a warm reference.
func BenchmarkInjectedRun(b *testing.B) {
	app, err := harness.Prepare("bzip2", harness.Config{Scale: 1, Spread: 8, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	c := &cell{workload: "bzip2", mode: cpu.ModeVCFR, app: app, kinds: []Kind{KindBranchTarget}}
	if err := c.reference(context.Background(), 10000); err != nil {
		b.Fatal(err)
	}
	cands := c.cands[0]
	if len(cands) == 0 {
		b.Fatal("no branch-target candidates")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := Fault{Kind: KindBranchTarget, Index: cands[i%len(cands)], Bits: 1, Seed: int64(i)}
		if o, _ := runInjection(context.Background(), c, f); o == "" {
			b.Fatal("injection not executed")
		}
	}
}
