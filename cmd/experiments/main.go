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
// the timing tables, across all three architecture modes, printing the
// detection-coverage table. -mode attacks runs the adversary-in-the-loop
// security evaluation (the work-factor table) and -mode multicore the
// multi-tenant interference campaign (the co-run slowdown table). With
// -stats-json each prints its campaign results envelope instead,
// byte-identical to the envelope of the vcfrd job of the same kind.
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

	"vcfr/internal/harness"
	"vcfr/internal/jobs"
	"vcfr/internal/results"
)

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// options is one parsed command line.
type options struct {
	mode, experiment, cachePath, format string
	workers                             int
	list, statsJSON                     bool
	// cfg configures the -mode tables experiments.
	cfg harness.Config
	// req is the job request of the campaigns and the -stats-json sweep,
	// before jobs.Normalize.
	req jobs.Request
}

// parseFlags parses args (the command line without the program name); a
// bad flag exits as the flag package does.
func parseFlags(args []string) options {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		mode       = fs.String("mode", "tables", "what to run: tables (the paper's timing tables) | faults (the dependability fault campaign) | attacks (the adversary-in-the-loop security evaluation) | multicore (the multi-tenant interference campaign)")
		experiment = fs.String("experiment", "all", "experiment id (see -list) or 'all'")
		workloadsF = fs.String("workloads", "", "comma-separated workload subset (default: experiment's own set)")
		scale      = fs.Int("scale", 1, "workload iteration scale")
		maxInsts   = fs.Uint64("instructions", 0, "per-run instruction cap (0 = run to completion)")
		seed       = fs.Int64("seed", 42, "randomization seed")
		spread     = fs.Int("spread", 0, "ILR scatter factor (0 = harness default)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel cell workers")
		cachePath  = fs.String("cache", "", "results cache file; computed cells are reused across runs")
		list       = fs.Bool("list", false, "list experiments and exit")
		format     = fs.String("format", "text", "output format: text | json")
		statsJSON  = fs.Bool("stats-json", false, "instead of table experiments, run every workload under all three modes and emit full per-run Results as JSON (with -mode faults/attacks/multicore: emit the campaign envelope)")
		injections = fs.Int("injections", 0, "with -mode faults: injections per workload x mode cell (0 = default 120)")
		faultsF    = fs.String("faults", "", "with -mode faults: comma-separated fault kinds (default: the full fault model)")
		bits       = fs.Int("bits", 0, "with -mode faults: bits flipped per injection (0 = default 1)")
		payloadsF  = fs.String("payloads", "", "with -mode attacks: comma-separated payload templates (default: all three)")
		budget     = fs.Int("budget", 0, "with -mode attacks: leak budget B0 (0 = default 16)")
		rerandN    = fs.Int("rerand-every", 0, "with -mode attacks: re-randomization period in leak ops (0 = default 5)")
		cellsF     = fs.String("cells", "", "with -mode multicore: comma-separated cores×tenants cells, e.g. 2c4t,1c2t (default: the canonical grid)")
		quantum    = fs.Uint64("quantum", 0, "with -mode multicore: scheduler time slice in instructions (0 = default 10000)")
	)
	fs.Parse(args)

	o := options{
		mode: *mode, experiment: *experiment, cachePath: *cachePath, format: *format,
		workers: *workers, list: *list, statsJSON: *statsJSON,
		cfg: harness.Config{Scale: *scale, MaxInsts: *maxInsts, Seed: *seed, Spread: *spread},
		req: jobs.Request{
			Instructions: *maxInsts,
			Injections:   *injections,
			Faults:       split(*faultsF),
			Bits:         *bits,
			Payloads:     split(*payloadsF),
			LeakBudget:   *budget,
			RerandEvery:  *rerandN,
			Cells:        split(*cellsF),
			Quantum:      *quantum,
		},
	}
	o.cfg.Workloads = split(*workloadsF)
	o.req.Workloads = o.cfg.Workloads
	// As in a vcfrd request body, presence, not value, selects a default:
	// an unset -seed, -scale or -spread leaves the request field absent.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			o.req.Seed = seed
		case "scale":
			o.req.Scale = scale
		case "spread":
			o.req.Spread = spread
		}
	})
	return o
}

// split splits a comma-separated flag value; "" is no list.
func split(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// jobKind is the job an invocation runs, or "" for the table experiments.
func (o options) jobKind() (jobs.Kind, error) {
	if o.mode == "tables" {
		if o.statsJSON {
			return jobs.KindSweep, nil
		}
		return "", nil
	}
	if k, err := jobs.ParseKind(o.mode); err == nil && k.Campaign() {
		return k, nil
	}
	return "", fmt.Errorf("unknown -mode %q (want tables, faults, attacks, or multicore)", o.mode)
}

func run(o options) error {
	if o.list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-24s %s\n%-24s   paper: %s\n", e.ID, e.Desc, "", e.Paper)
		}
		return nil
	}
	kind, err := o.jobKind()
	if err != nil {
		return err
	}

	r := harness.NewRunner(o.workers)
	if o.cachePath != "" {
		r.Cache = harness.OpenCache(o.cachePath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if kind != "" {
		req := o.req
		if err := req.Normalize(kind); err != nil {
			return err
		}
		out, err := jobs.Run(ctx, r, kind, req, nil)
		if err != nil {
			return err
		}
		// One schema across every entry point: sweeps and campaigns ride
		// the same versioned envelope vcfrd serves. A partial result still
		// prints everything that finished, then exits non-zero so scripts
		// notice.
		if o.statsJSON {
			if err := results.Write(os.Stdout, out.Envelope); err != nil {
				return err
			}
		} else {
			fmt.Print(out.Report.Table().Render())
		}
		return out.Incomplete
	}
	return tables(ctx, r, o)
}

// tables runs the paper's table experiments.
func tables(ctx context.Context, r *harness.Runner, o options) error {
	var exps []harness.Experiment
	if o.experiment == "all" {
		exps = harness.Experiments
	} else {
		e, err := harness.ByID(o.experiment)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}

	start := time.Now()
	results := r.RunAll(ctx, exps, o.cfg)

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
		switch o.format {
		case "text":
			fmt.Print(res.Table.Render())
			fmt.Printf("paper: %s   (%.1fs)\n\n", e.Paper, res.Elapsed.Seconds())
		case "json":
			out = append(out, jsonResult{Table: res.Table, Paper: e.Paper, Seconds: res.Elapsed.Seconds()})
		default:
			return fmt.Errorf("unknown -format %q", o.format)
		}
	}
	if o.format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "sweep: %d experiments in %.1fs (workers=%d)\n",
		len(exps), time.Since(start).Seconds(), o.workers)
	if r.Cache != nil {
		hits, misses := r.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses (%s)\n", hits, misses, o.cachePath)
		if err := r.Cache.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: saving cache: %v\n", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(exps))
	}
	return ctx.Err()
}
