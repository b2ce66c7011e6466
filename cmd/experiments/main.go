// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -experiment fig12
//	experiments -experiment all -scale 2 -workers 8
//	experiments -experiment fig13 -workloads h264ref,lbm -instructions 2000000
//	experiments -experiment all -cache .vcfr-cache.json
//	experiments -mode faults
//	experiments -mode faults -injections 200 -stats-json
//	experiments -mode attacks
//	experiments -mode attacks -payloads exfiltrate -stats-json
//	experiments -mode multicore
//	experiments -mode multicore -cells 2c4t -stats-json
//
// -mode faults runs the dependability fault-injection campaign instead of
// the timing tables: the same campaign `faultsim` runs, across all three
// architecture modes, printing the detection-coverage table (or, with
// -stats-json, the campaign results envelope byte-identical to
// `faultsim -json`).
//
// -mode attacks runs the adversary-in-the-loop security evaluation: the same
// campaign `attacksim` runs, printing the work-factor table (or, with
// -stats-json, the envelope byte-identical to `attacksim -json`).
//
// -mode multicore runs the multi-tenant interference campaign: the same
// campaign `clustersim` runs, printing the co-run slowdown table (or, with
// -stats-json, the envelope byte-identical to `clustersim -json`).
//
// Each experiment prints an aligned text table with the same rows/series the
// paper reports, plus the paper's headline number for comparison.
//
// Experiments are sharded into (experiment, workload) cells and run on a
// bounded worker pool (-workers, default GOMAXPROCS). Every cell derives its
// own PRNG seed from (base seed, experiment id, cell name), so output is
// byte-identical regardless of worker count or goroutine scheduling. With
// -cache, finished cells are memoized on disk and repeated invocations skip
// them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"vcfr/internal/attack"
	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/multicore"
	"vcfr/internal/results"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mode       = flag.String("mode", "tables", "what to run: tables (the paper's timing tables) | faults (the dependability fault campaign) | attacks (the adversary-in-the-loop security evaluation) | multicore (the multi-tenant interference campaign)")
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		workloadsF = flag.String("workloads", "", "comma-separated workload subset (default: experiment's own set)")
		scale      = flag.Int("scale", 1, "workload iteration scale")
		maxInsts   = flag.Uint64("instructions", 0, "per-run instruction cap (0 = run to completion)")
		seed       = flag.Int64("seed", 42, "randomization seed")
		spread     = flag.Int("spread", 0, "ILR scatter factor (0 = harness default)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel cell workers")
		cachePath  = flag.String("cache", "", "results cache file; computed cells are reused across runs")
		cellTime   = flag.Duration("cell-timeout", 0, "per-cell time budget (0 = none); overruns become error rows")
		list       = flag.Bool("list", false, "list experiments and exit")
		format     = flag.String("format", "text", "output format: text | json")
		statsJSON  = flag.Bool("stats-json", false, "instead of table experiments, run every workload under all three modes and emit full per-run Results as JSON (with -mode faults/attacks: emit the campaign envelope)")
		injections = flag.Int("injections", 0, "with -mode faults: injections per workload x mode cell (0 = default 120)")
		faultsF    = flag.String("faults", "", "with -mode faults: comma-separated fault kinds (default: the full fault model)")
		bits       = flag.Int("bits", 1, "with -mode faults: bits flipped per injection")
		payloadsF  = flag.String("payloads", "", "with -mode attacks: comma-separated payload templates (default: all three)")
		budget     = flag.Int("budget", 0, "with -mode attacks: leak budget B0 (0 = default 16)")
		rerandN    = flag.Int("rerand-every", 0, "with -mode attacks: re-randomization period in leak ops (0 = default 5)")
		cellsF     = flag.String("cells", "", "with -mode multicore: comma-separated cores×tenants cells, e.g. 2c4t,1c2t (default: the canonical grid)")
		quantum    = flag.Uint64("quantum", 0, "with -mode multicore: scheduler time slice in instructions (0 = default 10000)")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-24s %s\n%-24s   paper: %s\n", e.ID, e.Desc, "", e.Paper)
		}
		return nil
	}

	cfg := harness.Config{
		Scale:    *scale,
		MaxInsts: *maxInsts,
		Seed:     *seed,
		Spread:   *spread,
	}
	if *workloadsF != "" {
		cfg.Workloads = strings.Split(*workloadsF, ",")
	}

	var exps []harness.Experiment
	if *experiment == "all" {
		exps = harness.Experiments
	} else {
		e, err := harness.ByID(*experiment)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}

	r := harness.NewRunner(*workers)
	r.CellTimeout = *cellTime
	if *cachePath != "" {
		r.Cache = harness.OpenCache(*cachePath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch *mode {
	case "tables":
	case "faults":
		fcfg := fault.Config{
			Workloads:  cfg.Workloads,
			Injections: *injections,
			Seed:       *seed,
			Scale:      *scale,
			Spread:     *spread,
			MaxInsts:   *maxInsts,
			Bits:       *bits,
		}
		if *faultsF != "" {
			kinds, err := fault.ParseKinds(strings.Split(*faultsF, ","))
			if err != nil {
				return err
			}
			fcfg.Kinds = kinds
		}
		rep, err := fault.RunCampaign(ctx, r, fcfg, nil)
		if err != nil {
			return err
		}
		if *statsJSON {
			if err := results.Write(os.Stdout, rep.Envelope()); err != nil {
				return err
			}
		} else {
			fmt.Print(rep.Table().Render())
		}
		if rep.Partial {
			return fmt.Errorf("campaign incomplete: some injections were not executed")
		}
		return nil
	case "attacks":
		acfg := attack.Config{
			Workloads:   cfg.Workloads,
			Seed:        *seed,
			Scale:       *scale,
			Spread:      *spread,
			MaxInsts:    *maxInsts,
			LeakBudget:  *budget,
			RerandEvery: *rerandN,
		}
		if *payloadsF != "" {
			payloads, err := attack.ParsePayloads(strings.Split(*payloadsF, ","))
			if err != nil {
				return err
			}
			acfg.Payloads = payloads
		}
		rep, err := attack.RunCampaign(ctx, r, acfg, nil)
		if err != nil {
			return err
		}
		if *statsJSON {
			if err := results.Write(os.Stdout, rep.Envelope()); err != nil {
				return err
			}
		} else {
			fmt.Print(rep.Table().Render())
		}
		if rep.Partial {
			return fmt.Errorf("campaign incomplete: some cells were not executed")
		}
		return nil
	case "multicore":
		mcfg := multicore.Config{
			Workloads: cfg.Workloads,
			Quantum:   *quantum,
			Seed:      *seed,
			Scale:     *scale,
			Spread:    *spread,
			MaxInsts:  *maxInsts,
		}
		if *cellsF != "" {
			cells, err := multicore.ParseCells(*cellsF)
			if err != nil {
				return err
			}
			mcfg.Cells = cells
		}
		rep, err := multicore.RunCampaign(ctx, r, mcfg, nil)
		if err != nil {
			return err
		}
		if *statsJSON {
			if err := results.Write(os.Stdout, rep.Envelope()); err != nil {
				return err
			}
		} else {
			fmt.Print(rep.Table().Render())
		}
		if rep.Partial {
			return fmt.Errorf("campaign incomplete: some cells were not executed")
		}
		return nil
	default:
		return fmt.Errorf("unknown -mode %q (want tables, faults, attacks, or multicore)", *mode)
	}

	if *statsJSON {
		rows, err := harness.StatsSweep(ctx, r, cfg)
		if err != nil {
			return err
		}
		// One schema across every entry point: the sweep rides the same
		// versioned envelope the vcfrd service and vcfrsim emit. A partial
		// sweep (cancelled, or cells failed) still prints every finished
		// row, then exits non-zero so scripts notice.
		env := results.NewSweep(rows)
		if err := results.Write(os.Stdout, env); err != nil {
			return err
		}
		if env.Sweep.Partial {
			return fmt.Errorf("stats sweep incomplete: some cells failed or were cancelled")
		}
		return nil
	}

	start := time.Now()
	results := r.RunAll(ctx, exps, cfg)

	type jsonResult struct {
		*harness.Table
		Paper   string  `json:"paper"`
		Seconds float64 `json:"seconds"`
	}
	var out []jsonResult
	var failed int
	for i, res := range results {
		e := exps[i]
		if res.Err != nil {
			// One broken experiment must not abort the sweep: report it and
			// keep printing the others.
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, res.Err)
			failed++
			continue
		}
		switch *format {
		case "text":
			fmt.Print(res.Table.Render())
			fmt.Printf("paper: %s   (%.1fs)\n\n", e.Paper, res.Elapsed.Seconds())
		case "json":
			out = append(out, jsonResult{Table: res.Table, Paper: e.Paper, Seconds: res.Elapsed.Seconds()})
		default:
			return fmt.Errorf("unknown -format %q", *format)
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "sweep: %d experiments in %.1fs (workers=%d)\n",
		len(exps), time.Since(start).Seconds(), *workers)
	if r.Cache != nil {
		hits, misses := r.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%s)\n", hits, misses, *cachePath)
		if err := r.Cache.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: saving cache: %v\n", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(exps))
	}
	return ctx.Err()
}
