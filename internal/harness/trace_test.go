package harness

import (
	"context"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/trace"
)

// tracedRunner returns a runner carrying a trace cache, as the benchmark's
// traced layer builds it.
func tracedRunner(workers int) *Runner {
	r := NewRunner(workers)
	r.Traces = trace.NewCache(256 << 20)
	return r
}

// TestTracedSweepMatchesExecute locks the harness-level contract: cells
// always execute, so a runner's trace cache changes neither output nor
// cache contents. The multi-config experiments (fig13: 4 runs/cell, fig14:
// 3 runs/cell) and the single-config ones must render byte-identical tables
// with and without a trace cache, and the cache must record no capture.
func TestTracedSweepMatchesExecute(t *testing.T) {
	cfg := tiny("h264ref", "lbm")
	for _, id := range []string{"fig13", "fig14", "fig12", "table1"} {
		id := id
		t.Run(id, func(t *testing.T) {
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := exp.Run(NewRunner(2).Sweep(context.Background(), id), cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := tracedRunner(2)
			traced, err := exp.Run(r.Sweep(context.Background(), id), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := traced.Render(), plain.Render(); got != want {
				t.Errorf("table with a trace cache differs from without:\n--- traced ---\n%s--- plain ---\n%s", got, want)
			}
			hits, misses, _, entries := r.Traces.Stats()
			if hits != 0 || misses != 0 || entries != 0 {
				t.Errorf("cells touched the trace cache: hits=%d misses=%d entries=%d", hits, misses, entries)
			}
		})
	}
}

// TestPrepareMemoizedWithoutTraces locks the prepared-app memo's
// independence from the trace cache: on a runner without one, a second
// prepare of the same (workload, layout) returns the same *App.
func TestPrepareMemoizedWithoutTraces(t *testing.T) {
	r := NewRunner(1)
	if r.Traces != nil {
		t.Fatal("NewRunner carries a trace cache")
	}
	s := r.Sweep(context.Background(), "memo")
	cfg := tiny()
	a, err := s.prepare(context.Background(), "h264ref", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.prepare(context.Background(), "h264ref", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second prepare rebuilt the app")
	}
	if hits, misses := r.AppMemoStats(); hits != 1 || misses != 1 {
		t.Errorf("memo stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

// TestTracedSweepDeterministicAcrossWorkers reruns a multi-config
// experiment on a runner with a trace cache at 1 and 8 workers: per-cell
// derived seeds and the shared app memo must keep the output byte-stable
// regardless of scheduling.
func TestTracedSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := tiny("h264ref", "lbm")
	exp, err := ByID("fig13")
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for i, workers := range []int{1, 8} {
		tb, err := exp.Run(tracedRunner(workers).Sweep(context.Background(), "fig13"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = tb.Render()
	}
	if outs[0] != outs[1] {
		t.Errorf("traced output depends on worker count:\n--- 1 worker ---\n%s--- 8 workers ---\n%s", outs[0], outs[1])
	}
}

// TestTraceKeySeparatesStreams spot-checks the cache key: runs that must not
// share a functional trace get different keys.
func TestTraceKeySeparatesStreams(t *testing.T) {
	cfg := tiny()
	app, err := Prepare("h264ref", cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := TraceKey(app, cpu.ModeVCFR, 50_000)
	if k := TraceKey(app, cpu.ModeBaseline, 50_000); k == base {
		t.Error("baseline and VCFR share a key")
	}
	if k := TraceKey(app, cpu.ModeVCFR, 60_000); k == base {
		t.Error("different instruction caps share a key")
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	app2, err := Prepare("h264ref", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if k := TraceKey(app2, cpu.ModeVCFR, 50_000); k == base {
		t.Error("different layout seeds share a key")
	}
	other, err := Prepare("lbm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k := TraceKey(other, cpu.ModeVCFR, 50_000); k == base {
		t.Error("different workloads share a key")
	}
}
