package realbin_test

import (
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/realbin"
	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/workloads"
)

// BenchmarkLift measures front-end throughput: parse + decode + lift of a
// checked-in fixture, reported as lifted RV64 instructions per second. This
// bounds how fast real binaries can enter the simulator.
func BenchmarkLift(b *testing.B) {
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifted, err := realbin.Load(fixtures.CRC32, "crc32.elf")
		if err != nil {
			b.Fatal(err)
		}
		insts += uint64(lifted.Report.Instructions)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkLiftedSimulate measures the simulator on lifted real-binary
// text: a full VCFR-mode run of the crc32 fixture, reported as
// nanoseconds per simulated instruction — directly comparable to the
// pipeline budget pinned for the synthetic analogs.
func BenchmarkLiftedSimulate(b *testing.B) {
	lifted, err := realbin.Load(fixtures.CRC32, "crc32.elf")
	if err != nil {
		b.Fatal(err)
	}
	app, err := harness.NewApp(workloads.Workload{Name: "crc32", Img: lifted.Img}, ilr.Options{Seed: 42, Spread: 8})
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := app.Run(cpu.ModeVCFR, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Stats.Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/instr")
}
