package harness

import (
	"context"
	"testing"

	"vcfr/internal/cpu"
)

// benchCfg is the fig13+fig14 DRC-size sweep the acceptance criterion
// measures: a realistic instruction budget over two workloads.
func benchCfg() Config {
	return Config{Workloads: []string{"h264ref", "lbm"}, MaxInsts: 120_000, Scale: 1, Seed: 42, Spread: 8}
}

// runDRCSweep executes fig13 and fig14 once on r and returns the rendered
// tables.
func runDRCSweep(b *testing.B, r *Runner, cfg Config) [2]string {
	b.Helper()
	var out [2]string
	for i, id := range []string{"fig13", "fig14"} {
		exp, err := ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		tb, err := exp.Run(r.Sweep(context.Background(), id), cfg)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = tb.Render()
	}
	return out
}

// sweepInstructions computes the total simulated instructions one
// fig13+fig14 sweep executes, for the ns/instr metric: per workload, fig13
// runs one baseline and three VCFR timing configs and fig14 two more VCFR
// configs. Executed instruction counts are a property of the workload's
// functional execution — identical across modes, timing configs, and layout
// seeds (the lockstep tests pin this) — so one baseline + one VCFR run per
// workload yields an exact denominator.
func sweepInstructions(b *testing.B, cfg Config) uint64 {
	b.Helper()
	r := NewRunner(2)
	var total uint64
	for _, w := range cfg.Workloads {
		rows, err := SimulateRuns(context.Background(), r, w,
			[]cpu.Mode{cpu.ModeBaseline, cpu.ModeVCFR}, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		total += rows[0].Result.Stats.Instructions
		total += 5 * rows[1].Result.Stats.Instructions
	}
	return total
}

// BenchmarkDRCSweep times the fig13+fig14 DRC-size sweep end to end and
// reports ns/instr (wall clock per simulated instruction), the number
// scripts/bench_check.sh gates against BENCH_pipeline.json so refactors of
// the simulate hot path can be checked against a recorded baseline.
//
//	go test ./internal/harness -bench DRCSweep -benchtime 3x
func BenchmarkDRCSweep(b *testing.B) {
	cfg := benchCfg()
	insts := sweepInstructions(b, cfg)
	if insts == 0 {
		b.Fatal("sweep simulates zero instructions")
	}

	b.Run("execute", func(b *testing.B) {
		r := NewRunner(2)
		want := runDRCSweep(b, r, cfg) // outside the timed region, for the check below
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := runDRCSweep(b, r, cfg); got != want {
				b.Fatal("sweep is not deterministic")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(insts)*float64(b.N)), "ns/instr")
	})
}
