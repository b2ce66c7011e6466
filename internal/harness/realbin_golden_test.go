package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// TestELFGoldenEnvelopes pins the full three-mode results.Envelope for every
// checked-in real-binary fixture byte for byte. The fixtures are fixed
// binaries and the lifter, randomizer, and pipeline are deterministic per
// seed, so the envelope is a constant document: any drift means the
// real-binary front end changed the program the simulator sees. Regenerate
// with -update after a deliberate lifter or schema change.
//
// The same test proves producer agreement: the sweep path (what
// `experiments -stats-json -workloads <fixture>` runs) derives its own
// per-cell layout seed, so its rows land on a different randomized layout
// than the simulate path (what `vcfrsim -workload <fixture> -stats-json`
// and the vcfrd job executor run) — yet the lifted binary must compute the
// identical output and retire the identical instruction count under both.
func TestELFGoldenEnvelopes(t *testing.T) {
	modes := []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}
	cfg := Config{Scale: 1, Seed: 42, Spread: 8}
	for _, name := range workloads.ELFNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			rows, err := SimulateRuns(context.Background(), NewRunner(1), name, modes, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := results.Marshal(results.NewRun(rows...))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fixture envelope drifted from %s:\n%s", path, firstDiff(got, want))
			}

			sweepCfg := cfg
			sweepCfg.Workloads = []string{name}
			sweepRows, err := StatsSweepProgress(context.Background(), NewRunner(1), sweepCfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(sweepRows) != len(rows) {
				t.Fatalf("sweep produced %d rows, simulate %d", len(sweepRows), len(rows))
			}
			for i, sr := range sweepRows {
				if sr.Mode != rows[i].Mode || sr.Workload != rows[i].Workload {
					t.Fatalf("row %d is %s/%s, simulate ran %s/%s",
						i, sr.Workload, sr.Mode, rows[i].Workload, rows[i].Mode)
				}
				if string(sr.Result.Out) != string(rows[i].Result.Out) {
					t.Errorf("%s: sweep output %q != simulate output %q under a different layout",
						sr.Mode, sr.Result.Out, rows[i].Result.Out)
				}
				if sr.Result.Stats.Instructions != rows[i].Result.Stats.Instructions {
					t.Errorf("%s: sweep retired %d instructions, simulate %d",
						sr.Mode, sr.Result.Stats.Instructions, rows[i].Result.Stats.Instructions)
				}
			}
		})
	}
}
