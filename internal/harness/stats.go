package harness

import (
	"context"
	"sync"

	"vcfr/internal/cpu"
	"vcfr/internal/ilr"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// Progress is a sweep's or campaign's live completion state, reported after
// each finished unit: how many units are done, how many there are in total,
// and the simulated instructions accumulated by the finished units (read
// from the statistics spine).
type Progress struct {
	CellsDone    int    `json:"cells_done"`
	CellsTotal   int    `json:"cells_total"`
	Instructions uint64 `json:"instructions"`
}

// ProgressCounter returns the tally of a job of total units: each call
// counts one finished unit that simulated insts instructions and reports
// the cumulative Progress to onProgress. It is safe to call from worker
// goroutines; with a nil onProgress it does nothing.
func ProgressCounter(total int, onProgress func(Progress)) func(insts uint64) {
	if onProgress == nil {
		return func(uint64) {}
	}
	var mu sync.Mutex
	p := Progress{CellsTotal: total}
	return func(insts uint64) {
		mu.Lock()
		p.CellsDone++
		p.Instructions += insts
		now := p
		mu.Unlock()
		onProgress(now)
	}
}

// StatsSweepProgress simulates every configured workload (default: the 11 SPEC
// analogs) under all three architecture modes on the runner's worker pool
// and returns one row per (workload, mode) in stable (workload, mode) order.
// Workloads take derived seeds as the table experiments' cells do, but
// their apps go through the runner's prepared-app memo (Runner.Prepare), so
// a repeated sweep on one runner, as a vcfrd job, reuses every layout.
//
// A failed or cancelled cell does not discard the sweep: its workload
// contributes a single error row (Mode empty, Error set) and every cell
// that did finish is returned intact. Callers that need all-or-nothing
// semantics can check results.Run.Failed on each row, or wrap the rows with
// results.NewSweep, which derives the Partial flag.
//
// onProgress (when non-nil) is invoked after every executed cell, from
// worker goroutines, with a consistent cumulative Progress. The vcfrd
// service feeds this into GET /v1/jobs/{id} so a running sweep is
// observable mid-flight.
func StatsSweepProgress(ctx context.Context, r *Runner, cfg Config, onProgress func(Progress)) ([]results.Run, error) {
	s := r.Sweep(ctx, "stats")
	cfg = cfg.withDefaults()
	names := cfg.names(workloads.SpecNames)
	count := ProgressCounter(len(names), onProgress)
	runs := make([][]results.Run, len(names))
	cells := s.mapCellsIndexed(cfg, names,
		func(ctx context.Context, cfg Config, i int, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			rows, err := app.RunRows(ctx, cpu.AllModes(), cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			var cellInsts uint64
			for _, row := range rows {
				cellInsts += row.Result.Stats.Instructions
			}
			runs[i] = rows
			count(cellInsts)
			return Cell{}, nil
		})

	var out []results.Run
	for i, c := range cells {
		if c.failed() {
			out = append(out, results.Run{
				Workload: c.Name,
				Seed:     CellSeed(cfg.Seed, s.exp, c.Name),
				Error:    FirstLine(c.Err),
			})
			continue
		}
		out = append(out, runs[i]...)
	}
	return out, nil
}

// SimulateRuns is the one simulation entry point shared by vcfrsim
// -stats-json and the vcfrd service: it prepares the named workload with
// cfg.Seed as the layout seed (no per-cell derivation — this is a direct
// query, not a sweep) and runs it under each requested mode, in order, with
// mutate applied to the machine configuration. Every run executes; a
// repeated query on the same runner reuses the prepared app (workload build
// and ILR rewrite) from the runner's memo.
//
// Both producers serialize the returned rows through results.NewRun +
// results.Marshal, which is what makes a service response byte-identical to
// the equivalent CLI invocation.
func SimulateRuns(ctx context.Context, r *Runner, name string, modes []cpu.Mode, cfg Config, mutate func(*cpu.Config)) ([]results.Run, error) {
	cfg = cfg.withDefaults()
	app, err := r.Prepare(ctx, name, cfg)
	if err != nil {
		return nil, err
	}
	return app.RunRows(ctx, modes, cfg.MaxInsts, mutate)
}

// RunRows simulates the app under each mode, in order, with mutate applied
// to the machine configuration, and returns one wire row per mode labelled
// with the workload name and the rewrite's layout seed. It is the per-mode
// half of SimulateRuns, and what vcfrsim runs for a program that is not a
// built-in workload. On error it returns the rows finished so far.
func (a *App) RunRows(ctx context.Context, modes []cpu.Mode, maxInsts uint64, mutate func(*cpu.Config)) ([]results.Run, error) {
	rows := make([]results.Run, 0, len(modes))
	for _, mode := range modes {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		res, ccfg, err := a.RunContext(ctx, mode, maxInsts, mutate)
		if err != nil {
			return rows, err
		}
		rows = append(rows, RunRow(a.W.Name, mode, a.R.Opts.Seed, ccfg, res, a.R))
	}
	return rows, nil
}

// RunRow builds the wire row for one finished (workload, mode) simulation
// of the rewrite rw, attaching the spine-derived extras every producer must
// agree on: the rewriter statistics (absent under baseline, which runs the
// original binary) and the interval series derived from the run's sampled
// snapshots.
func RunRow(name string, mode cpu.Mode, seed int64, ccfg cpu.Config, res cpu.Result, rw *ilr.Result) results.Run {
	row := results.Run{
		Workload:  name,
		Mode:      mode.String(),
		Seed:      seed,
		Config:    ccfg,
		Result:    res,
		Intervals: results.MakeIntervals(res.Intervals),
	}
	if mode.Randomized() {
		st := rw.Stats
		row.Ilr = &st
	}
	return row
}
