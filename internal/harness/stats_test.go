package harness

import (
	"context"
	"sync"
	"testing"
	"time"

	"vcfr/internal/cpu"
)

// TestStatsSweep locks the machine-readable sweep's contract: one row per
// (workload, mode) in stable order, with real results and per-cell seeds
// inside.
func TestStatsSweep(t *testing.T) {
	cfg := tiny("h264ref", "lbm")
	rows, err := StatsSweepProgress(context.Background(), NewRunner(2), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 2 workloads x 3 modes = 6", len(rows))
	}
	wantOrder := []struct{ w, m string }{
		{"h264ref", "baseline"}, {"h264ref", "naive-ilr"}, {"h264ref", "vcfr"},
		{"lbm", "baseline"}, {"lbm", "naive-ilr"}, {"lbm", "vcfr"},
	}
	for i, r := range rows {
		if r.Workload != wantOrder[i].w || r.Mode != wantOrder[i].m {
			t.Errorf("row %d is %s/%s, want %s/%s", i, r.Workload, r.Mode, wantOrder[i].w, wantOrder[i].m)
		}
		if r.Result.Stats.Instructions == 0 || r.Result.Stats.Cycles == 0 {
			t.Errorf("row %d (%s/%s) has empty stats", i, r.Workload, r.Mode)
		}
		if r.Seed == 0 || r.Seed == cfg.Seed {
			t.Errorf("row %d seed %d not derived per cell", i, r.Seed)
		}
	}
	if rows[0].Config.Mode != cpu.ModeBaseline || rows[2].Config.Mode != cpu.ModeVCFR {
		t.Error("rows carry the wrong machine configuration")
	}
}

// TestStatsSweepCancelledPartial locks the redesigned cancellation
// contract: a sweep whose context is already cancelled does not discard the
// table — every workload comes back as an error row with its derived seed,
// so the caller can tell exactly which cells are missing and why.
func TestStatsSweepCancelledPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := StatsSweepProgress(ctx, NewRunner(2), tiny("h264ref", "lbm"), nil)
	if err != nil {
		t.Fatalf("cancelled sweep must return partial rows, got error %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want one error row per workload (2)", len(rows))
	}
	for i, r := range rows {
		if !r.Failed() {
			t.Errorf("row %d (%s) not marked failed under cancelled context", i, r.Workload)
		}
		if r.Seed == 0 {
			t.Errorf("row %d error row lost its derived seed", i)
		}
	}
}

// TestStatsSweepTimeoutMidRun proves a deadline on the caller's context
// fails an uncapped cell instead of hanging or discarding the sweep: an
// absurdly small budget must fail every cell while the sweep itself still
// returns rows.
func TestStatsSweepTimeoutMidRun(t *testing.T) {
	r := NewRunner(2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	cfg := tiny("h264ref")
	cfg.MaxInsts = 0 // uncapped: only cancellation can stop the run early
	rows, err := StatsSweepProgress(ctx, r, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Failed() {
		t.Fatalf("rows = %+v, want a single error row for the timed-out cell", rows)
	}
}

// TestProgressCounter: counts from concurrent workers add up, every report
// is a consistent snapshot (one per finished unit, instructions matching
// the units counted), and a nil callback makes the counter a no-op.
func TestProgressCounter(t *testing.T) {
	const units = 64
	var mu sync.Mutex
	var reports []Progress
	count := ProgressCounter(units, func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		reports = append(reports, p)
	})
	var wg sync.WaitGroup
	for i := 0; i < units; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			count(10)
		}()
	}
	wg.Wait()
	if len(reports) != units {
		t.Fatalf("%d reports, want %d", len(reports), units)
	}
	seen := make(map[int]bool)
	for _, p := range reports {
		if p.CellsTotal != units || p.Instructions != 10*uint64(p.CellsDone) || seen[p.CellsDone] {
			t.Errorf("inconsistent or repeated report %+v", p)
		}
		seen[p.CellsDone] = true
	}
	if !seen[units] {
		t.Errorf("no report reached %d/%d", units, units)
	}
	ProgressCounter(1, nil)(5)
}
