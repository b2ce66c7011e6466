package harness

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// renderSweep runs every registered experiment through a runner with the
// given worker count and concatenates the rendered tables, in experiment
// order.
func renderSweep(t *testing.T, workers int, cfg Config) string {
	t.Helper()
	r := NewRunner(workers)
	var b strings.Builder
	for _, res := range r.RunAll(context.Background(), Experiments, cfg) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Experiment.ID, res.Err)
		}
		b.WriteString(res.Table.Render())
	}
	return b.String()
}

// TestRunnerDeterministicAcrossWorkers is the determinism regression test
// for the parallel runner: the full experiment list must render
// byte-identically at -workers=1 and -workers=8, because every cell's
// randomness comes from its derived seed, never from scheduling order.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full double sweep in -short mode")
	}
	cfg := Config{MaxInsts: 40_000, Seed: 42}
	start := time.Now()
	serial := renderSweep(t, 1, cfg)
	serialTime := time.Since(start)
	start = time.Now()
	parallel := renderSweep(t, 8, cfg)
	parallelTime := time.Since(start)
	t.Logf("sweep wall-clock: workers=1 %.2fs, workers=8 %.2fs (speedup %.2fx, GOMAXPROCS-bound)",
		serialTime.Seconds(), parallelTime.Seconds(),
		serialTime.Seconds()/parallelTime.Seconds())
	if serial != parallel {
		sl, pl := strings.Split(serial, "\n"), strings.Split(parallel, "\n")
		for i := range sl {
			if i >= len(pl) || sl[i] != pl[i] {
				t.Fatalf("output diverged at line %d:\n workers=1: %q\n workers=8: %q",
					i+1, sl[i], pl[i])
			}
		}
		t.Fatal("outputs differ in length only")
	}
}

// TestRunnerSeedIndependentOfWorkloadSubset: a cell's derived seed depends
// only on (base seed, experiment, cell name), so the rows for a workload
// are identical whether it runs alone or inside the full set — sharding
// never changes results.
func TestRunnerSeedIndependentOfWorkloadSubset(t *testing.T) {
	solo, err := Fig12(sweep("fig12"), tiny("h264ref"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Fig12(sweep("fig12"), tiny("h264ref", "lbm", "xalan"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(full.Rows[0], "|"), strings.Join(solo.Rows[0], "|"); got != want {
		t.Errorf("h264ref row depends on the surrounding set:\n solo %s\n full %s", want, got)
	}
}

func TestCellSeedProperties(t *testing.T) {
	a := CellSeed(42, "fig12", "h264ref")
	if a != CellSeed(42, "fig12", "h264ref") {
		t.Error("CellSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, exp := range []string{"fig12", "fig13"} {
		for _, cell := range []string{"h264ref", "lbm", "xalan"} {
			s := CellSeed(42, exp, cell)
			if s == 0 {
				t.Errorf("CellSeed(42, %s, %s) = 0", exp, cell)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: %s/%s vs %s", exp, cell, prev)
			}
			seen[s] = exp + "/" + cell
		}
	}
	if CellSeed(1, "fig12", "h264ref") == CellSeed(2, "fig12", "h264ref") {
		t.Error("base seed ignored")
	}
}

// TestCellErrorBecomesRow: a workload that fails to build surfaces as an
// error row; the rest of the table — including the aggregate — still
// computes from the surviving cells.
func TestCellErrorBecomesRow(t *testing.T) {
	tb, err := Fig4(sweep("fig4"), tiny("h264ref", "doom"))
	if err != nil {
		t.Fatalf("cell failure aborted the experiment: %v", err)
	}
	if len(tb.Rows) != 3 { // h264ref + doom error + average
		t.Fatalf("rows = %d, want 3:\n%s", len(tb.Rows), tb.Render())
	}
	if tb.Rows[1][0] != "doom" || !strings.HasPrefix(tb.Rows[1][1], "error: ") {
		t.Errorf("missing error row, got %v", tb.Rows[1])
	}
	if avg := tb.Rows[2]; avg[0] != "average" || avg[3] == "" || avg[3] == "NaN" {
		t.Errorf("aggregate row broken: %v", avg)
	}
}

// TestCellPanicBecomesRow: a panicking cell is captured and reported as an
// error row instead of killing the sweep.
func TestCellPanicBecomesRow(t *testing.T) {
	s := sweep("panic-test")
	cells := s.mapCells(tiny(), []string{"ok", "boom"},
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			if name == "boom" {
				panic("cell exploded")
			}
			return Cell{Rows: [][]string{{name, "fine"}}}, nil
		})
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].failed() || cells[0].Rows[0][1] != "fine" {
		t.Errorf("healthy cell damaged: %+v", cells[0])
	}
	if !cells[1].failed() || !strings.Contains(cells[1].Rows[0][1], "panic: cell exploded") {
		t.Errorf("panic not captured: %+v", cells[1])
	}
	if strings.Contains(cells[1].Rows[0][1], "\n") {
		t.Error("error row contains a newline (stack leaked into the table)")
	}
}

// TestCellTimeout: a cell that overruns the deadline of the sweep's
// context surfaces as an error row.
func TestCellTimeout(t *testing.T) {
	r := NewRunner(2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	s := r.Sweep(ctx, "timeout-test")
	cells := s.mapCells(tiny(), []string{"slow"},
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			time.Sleep(2 * time.Millisecond)
			if err := ctx.Err(); err != nil {
				return Cell{}, err
			}
			return Cell{Rows: [][]string{{name, "finished"}}}, nil
		})
	if !cells[0].failed() || !strings.Contains(cells[0].Err, context.DeadlineExceeded.Error()) {
		t.Errorf("timeout not enforced: %+v", cells[0])
	}
}

// TestSweepCancel: cancelling the sweep context drains pending cells as
// error rows without deadlocking.
func TestSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(1)
	cells := r.Sweep(ctx, "cancel-test").mapCells(tiny(), []string{"a", "b", "c"},
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			return Cell{}, ctx.Err()
		})
	for _, c := range cells {
		if !c.failed() || !errors.Is(context.Canceled, errors.New(c.Err)) &&
			!strings.Contains(c.Err, context.Canceled.Error()) {
			t.Errorf("cell %s: want cancellation error, got %q", c.Name, c.Err)
		}
	}
}

// TestRunAllCollectsEveryExperiment: RunAll preserves input order and
// isolates failures per experiment.
func TestRunAllCollectsEveryExperiment(t *testing.T) {
	exps := []Experiment{
		mustByID(t, "fig11"),
		{ID: "always-fails", Desc: "x", Paper: "x",
			Run: func(s *Sweep, cfg Config) (*Table, error) {
				return nil, errors.New("no table")
			}},
		mustByID(t, "fig9"),
	}
	out := NewRunner(2).RunAll(context.Background(), exps, tiny("h264ref"))
	if len(out) != 3 {
		t.Fatalf("results = %d", len(out))
	}
	if out[0].Err != nil || out[0].Table.ID != "fig11" {
		t.Errorf("fig11: %+v", out[0].Err)
	}
	if out[1].Err == nil {
		t.Error("failing experiment reported no error")
	}
	if out[2].Err != nil || out[2].Table.ID != "fig9" {
		t.Errorf("fig9 did not survive a sibling failure: %+v", out[2].Err)
	}
}

func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
