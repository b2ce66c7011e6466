package multicore

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
)

var update = flag.Bool("update", false, "rewrite golden files")

// canonicalReport runs the canonical campaign (the default Config every
// surface runs) exactly once per test binary and shares the report.
var canonicalReport = sync.OnceValues(func() (*Report, error) {
	return RunCampaign(context.Background(), harness.NewRunner(0), Config{}, nil)
})

// TestCampaignGolden pins the canonical interference campaign's results
// envelope byte for byte: same layouts, same schedule, same table, on every
// machine and Go version. Regenerate with -update after a deliberate change
// to the campaign (and bump the results schema if the wire shape changed).
func TestCampaignGolden(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	got, err := results.Marshal(rep.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "multicore.golden.json", got)
	checkGolden(t, "table.golden", []byte(rep.Table().Render()))
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("%s drifted\n--- got ---\n%.2000s", path, got)
	}
}

// TestVCFRCoRunDegradationTracksBaseline is the consolidation acceptance
// criterion (Sec. IV-D): co-running under VCFR must not degrade IPC more
// than co-running under naive ILR — the scattered layout's location maps
// press extra state into the shared L2, while VCFR's read-only randomized
// space costs co-tenants nothing beyond what the baseline already pays.
func TestVCFRCoRunDegradationTracksBaseline(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("canonical campaign reported partial")
	}
	slow := make(map[string]float64)
	for _, s := range rep.Summaries {
		if s.Rows == 0 || s.MeanSlowdown == 0 {
			t.Fatalf("mode %s aggregated no co-run slowdowns: %+v", s.Mode, s)
		}
		slow[s.Mode] = s.MeanSlowdown
	}
	if slow["vcfr"] > slow["naive-ilr"] {
		t.Errorf("VCFR co-run slowdown %.4f exceeds naive ILR's %.4f; the consolidation claim fails",
			slow["vcfr"], slow["naive-ilr"])
	}
	// Interference must actually exist for the comparison to mean anything:
	// at least one mode's co-run geomean above parity.
	if slow["baseline"] < 1 || slow["naive-ilr"] <= 1 {
		t.Errorf("no measurable co-run interference: %+v", slow)
	}
	// Time-sharing cells must charge the paper's switch-in cost under the
	// randomizing modes: cold DRCs show up as flushes on the tenant rows.
	vcfr := rep.Summary(cpu.ModeVCFR)
	if vcfr == nil || vcfr.DRCFlushes == 0 || vcfr.Switches == 0 {
		t.Errorf("VCFR co-run summary charges no switch-in cost: %+v", vcfr)
	}
}

// TestCampaignDeterministicAcrossWorkers locks worker-count independence:
// the same seed must yield byte-identical interference tables whether the
// cells run serially or spread over eight workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Workloads: []string{"bzip2", "sjeng"},
		Cells:     []Cell{{Cores: 2, Tenants: 3}, {Cores: 1, Tenants: 2}},
		MaxInsts:  8000,
		Quantum:   1000,
		Seed:      7,
	}
	run := func(workers int) []byte {
		t.Helper()
		rep, err := RunCampaign(context.Background(), harness.NewRunner(workers), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := results.Marshal(rep.Envelope())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("interference table depends on worker count:\n--- workers=1 ---\n%.1500s\n--- workers=8 ---\n%.1500s",
			serial, parallel)
	}
}

// TestCampaignRowPlan pins the row layout: one solo reference per (instance,
// mode) first, then one row per (cell, mode, tenant), with tenants cycling
// the workload pool across epochs.
func TestCampaignRowPlan(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	cfg := rep.Config
	maxTenants := 0
	for _, c := range cfg.Cells {
		if c.Tenants > maxTenants {
			maxTenants = c.Tenants
		}
	}
	wantSolo := maxTenants * len(cfg.Modes)
	var wantCo int
	for _, c := range cfg.Cells {
		wantCo += c.Tenants * len(cfg.Modes)
	}
	if len(rep.Rows) != wantSolo+wantCo {
		t.Fatalf("rows = %d, want %d solo + %d co-run", len(rep.Rows), wantSolo, wantCo)
	}
	for i, row := range rep.Rows[:wantSolo] {
		if row.Cell != "solo" {
			t.Fatalf("row %d: cell %q, want the solo block first", i, row.Cell)
		}
		inst := i / len(cfg.Modes)
		if want := cfg.Workloads[inst%len(cfg.Workloads)]; row.Workload != want || row.Epoch != inst/len(cfg.Workloads) {
			t.Errorf("solo row %d: workload %s epoch %d, want %s epoch %d",
				i, row.Workload, row.Epoch, want, inst/len(cfg.Workloads))
		}
	}
	for _, row := range rep.Rows[wantSolo:] {
		if row.Cell == "solo" {
			t.Fatalf("solo row after the co-run block")
		}
		if row.Error != "" {
			t.Errorf("co-run row %s/%s tenant %d errored: %s", row.Cell, row.Mode, row.Tenant, row.Error)
		}
	}
	if len(rep.Totals) != len(cfg.Cells)*len(cfg.Modes) {
		t.Errorf("totals = %d, want one per (cell, mode)", len(rep.Totals))
	}
	for _, tt := range rep.Totals {
		if tt.Instructions == 0 || tt.Cycles == 0 || tt.IPC == 0 {
			t.Errorf("empty total for %s/%s: %+v", tt.Cell, tt.Mode, tt)
		}
	}
}

// TestCampaignCancellation proves a cancelled campaign returns the partial
// report instead of an error: the full row plan comes back, unexecuted
// units are marked, and Partial is set.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCampaign(ctx, harness.NewRunner(1), Config{
		Workloads: []string{"bzip2"},
		Cells:     []Cell{{Cores: 1, Tenants: 2}},
		MaxInsts:  5000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("cancelled campaign not marked partial")
	}
	if want := 2*3 + 2*3; len(rep.Rows) != want {
		t.Errorf("cancelled campaign has %d rows, want the full plan of %d", len(rep.Rows), want)
	}
	for _, r := range rep.Rows {
		if r.Error == "" {
			t.Errorf("row %s/%s tenant %d executed under a cancelled context", r.Cell, r.Mode, r.Tenant)
		}
	}
	env := rep.Envelope()
	if !env.Multicore.Partial {
		t.Error("envelope of cancelled campaign not marked partial")
	}
}

// TestCampaignProgress checks the live progress feed: monotone unit counts
// ending at the plan total.
func TestCampaignProgress(t *testing.T) {
	var mu sync.Mutex
	var last harness.Progress
	var calls int
	rep, err := RunCampaign(context.Background(), harness.NewRunner(2), Config{
		Workloads: []string{"bzip2"},
		Modes:     []cpu.Mode{cpu.ModeVCFR},
		Cells:     []Cell{{Cores: 1, Tenants: 2}},
		MaxInsts:  5000,
	}, func(p harness.Progress) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.CellsDone > last.CellsDone {
			last = p
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("campaign partial")
	}
	if calls == 0 || last.CellsDone != last.CellsTotal || last.Instructions == 0 {
		t.Errorf("final progress %+v after %d calls, want all units done with nonzero instructions", last, calls)
	}
}

// TestParseCells pins the cell grammar.
func TestParseCells(t *testing.T) {
	got, err := ParseCells("2c4t, 1c2t")
	if err != nil || len(got) != 2 || got[0] != (Cell{2, 4}) || got[1] != (Cell{1, 2}) {
		t.Fatalf("ParseCells = %v, %v", got, err)
	}
	for _, bad := range []string{"", "2x4", "0c1t", "2c0t", "c4t", "2ct"} {
		if _, err := ParseCells(bad); err == nil {
			t.Errorf("ParseCells(%q) accepted", bad)
		}
	}
}
