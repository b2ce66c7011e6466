package harness

import (
	"context"
	"strings"
	"testing"

	"vcfr/internal/cpu"
)

// tiny returns a config that keeps harness tests fast: two workloads,
// capped instruction budgets.
func tiny(names ...string) Config {
	if len(names) == 0 {
		names = []string{"h264ref", "lbm"}
	}
	return Config{Workloads: names, MaxInsts: 60_000, Scale: 1, Seed: 42, Spread: 8}
}

// sweep builds the execution context for calling one experiment function
// directly in tests, with a small parallel worker pool.
func sweep(id string) *Sweep {
	return NewRunner(2).Sweep(context.Background(), id)
}

func TestPrepareAndRunModes(t *testing.T) {
	app, err := Prepare("h264ref", tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR} {
		res, _, err := app.Run(mode, 50_000, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Stats.Instructions != 50_000 {
			t.Errorf("%v: ran %d instructions", mode, res.Stats.Instructions)
		}
	}
	if _, _, err := app.Run(cpu.Mode(9), 1000, nil); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestPrepareUnknownWorkload(t *testing.T) {
	if _, err := Prepare("doom", tiny()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunEmulated(t *testing.T) {
	app, err := Prepare("memcpy", tiny())
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.RunEmulated(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.HostCycles == 0 {
		t.Error("no host cycles")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"xxxxxxxx", "1"}, {"y", "2"}},
		Note:    "hello",
	}
	out := tb.Render()
	for _, want := range []string{"== t: demo ==", "long-column", "xxxxxxxx", "note: hello", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Experiments {
		if e.ID == "" || e.Desc == "" || e.Run == nil || e.Paper == "" {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := ByID("fig12"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestEveryExperimentRunsOnTinyConfig smoke-tests each experiment end to end
// on a reduced workload set.
func TestEveryExperimentRunsOnTinyConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	r := NewRunner(4)
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := r.Run(context.Background(), e, tiny())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			if tb.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tb.ID, e.ID)
			}
			if out := tb.Render(); !strings.Contains(out, tb.Title) {
				t.Error("render missing title")
			}
		})
	}
}

func TestFig12ShapeVCFRWins(t *testing.T) {
	tb, err := Fig12(sweep("fig12"), tiny("h264ref"))
	if err != nil {
		t.Fatal(err)
	}
	// The last column of the first row is the speedup; VCFR must beat naive.
	sp := tb.Rows[0][len(tb.Rows[0])-1]
	if !strings.HasPrefix(sp, "1.") && !strings.HasPrefix(sp, "2.") &&
		!strings.HasPrefix(sp, "3.") {
		t.Errorf("speedup %q < 1: naive beat VCFR", sp)
	}
}

func TestMeanGeomean(t *testing.T) {
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := Geomean([]float64{1, 4}); got != 2 {
		t.Errorf("geomean = %v", got)
	}
	if mean(nil) != 0 || Geomean(nil) != 0 || Geomean([]float64{0}) != 0 {
		t.Error("degenerate inputs")
	}
}
