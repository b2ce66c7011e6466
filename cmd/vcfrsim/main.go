// Command vcfrsim runs the cycle-level simulator on a built-in workload or a
// program file (a RV64 ELF binary or VX source), in any of the three
// architecture modes.
//
// Usage:
//
//	vcfrsim -workload h264ref -mode vcfr -drc 128
//	vcfrsim -mode naive -instructions 2000000 app.s
//	vcfrsim -workload xalan -mode all
//	vcfrsim -workload elf-fib -mode all
//	vcfrsim -mode vcfr ./prog.elf
//	vcfrsim -workload lbm -mode all -stats-json
//
// It prints IPC, the stall breakdown, cache statistics, and (under VCFR)
// DRC statistics and the dynamic-power breakdown. With -stats-json the
// per-mode rows are emitted as one versioned results.Envelope instead.
//
// A -workload invocation is a run job: the flags build the jobs.Request of
// a vcfrd `{"kind": "run", ...}` POST /v1/jobs body, and jobs.Run computes
// it, so `vcfrsim -workload W -stats-json` and that job's
// /v1/jobs/{id}/result are the same bytes. A program file names a program a
// request cannot; workloads.Load reads it (the file's bytes say whether it is
// an ELF binary or VX source), and it runs the same per-mode rows
// (harness.App.RunRows) on an app built here, each row labelled with the
// layout seed it ran. -trace N (a UPC/RPC listing) and -emulate are the only
// additions to either path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/jobs"
	"vcfr/internal/power"
	"vcfr/internal/results"
	"vcfr/internal/stats"
	"vcfr/internal/workloads"
)

func main() {
	if err := run(parseFlags(os.Args[1:]), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vcfrsim:", err)
		os.Exit(1)
	}
}

// options is one parsed command line.
type options struct {
	// req is the run request the flags describe, before normalization.
	req jobs.Request
	// file names a program the request cannot: an ELF binary or VX source.
	file                     string
	list, statsJSON, emulate bool
	traceN                   uint64
}

// parseFlags parses args (the command line without the program name); a
// bad flag exits as the flag package does.
func parseFlags(args []string) options {
	fs := flag.NewFlagSet("vcfrsim", flag.ExitOnError)
	var (
		workload  = fs.String("workload", "", "built-in workload name (see -list)")
		list      = fs.Bool("list", false, "list built-in workloads")
		mode      = fs.String("mode", "", "baseline | naive | vcfr | all (unset: vcfr)")
		scale     = fs.Int("scale", 0, "workload scale (unset: the run job default)")
		maxInsts  = fs.Uint64("instructions", 0, "instruction cap (0 = to completion)")
		seed      = fs.Int64("seed", 0, "randomization seed (unset: the run job default; 0: the harness default)")
		spread    = fs.Int("spread", 0, "scatter factor (unset or 0: the default)")
		drc       = fs.Int("drc", 0, "DRC entries (unset: the default)")
		traceN    = fs.Uint64("trace", 0, "print the first N executed instructions of each mode (UPC/RPC/storage) before its text report")
		width     = fs.Int("width", 0, "issue width (unset: the paper's single-issue core; 2 = dual-issue)")
		ctxEvery  = fs.Uint64("ctxswitch", 0, "flush process-private state every N instructions")
		statsJSON = fs.Bool("stats-json", false, "emit a versioned results.Envelope as JSON instead of the text report")
		interval  = fs.Uint64("interval", 0, "snapshot counters every N instructions; the per-window series lands in the envelope's intervals field")
		emulate   = fs.Bool("emulate", false, "also run the software-ILR emulation and report its counters (emulated-ilr row under -stats-json)")
	)
	fs.Parse(args)

	o := options{
		req: jobs.Request{
			Workload:       *workload,
			Mode:           *mode,
			Instructions:   *maxInsts,
			CtxSwitchEvery: *ctxEvery,
			Interval:       *interval,
		},
		list: *list, statsJSON: *statsJSON, emulate: *emulate, traceN: *traceN,
	}
	if fs.NArg() == 1 {
		o.file = fs.Arg(0)
	}
	// As in a vcfrd request body, presence, not value, selects a default:
	// an unset knob leaves the request field absent for jobs to fill.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			o.req.Seed = seed
		case "scale":
			o.req.Scale = scale
		case "spread":
			o.req.Spread = spread
		case "drc":
			o.req.DRC = drc
		case "width":
			o.req.Width = width
		}
	})
	return o
}

func run(o options, w io.Writer) error {
	if o.list {
		// The name/source/desc columns mirror the fields of GET /v1/workloads,
		// so the CLI listing and the service listing describe the same registry
		// the same way.
		for _, n := range workloads.Names() {
			desc, source, err := workloads.Describe(n)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %-10s %s\n", n, source, desc)
		}
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	req := o.req
	job := req.Workload != ""
	var err error
	switch {
	case job && o.file != "":
		return errors.New("give -workload or a program file, not both")
	case job:
		err = req.Normalize(jobs.KindRun)
	case o.file == "":
		return errors.New("need -workload or a program file; see -h")
	default:
		err = req.NormalizeProgram()
	}
	if err != nil {
		return err
	}
	modes, err := cpu.ParseModes(req.Mode)
	if err != nil {
		return err
	}

	var (
		app  *harness.App
		rows []results.Run
	)
	if job {
		r := harness.NewRunner(1)
		out, err := jobs.Run(ctx, r, jobs.KindRun, req, nil)
		if err != nil {
			return err
		}
		rows = out.Envelope.Run
		if o.emulate || (o.traceN > 0 && !o.statsJSON) {
			// A memo hit: jobs.Run prepared this app on r.
			if app, err = r.Prepare(ctx, req.Workload, req.Config()); err != nil {
				return err
			}
		}
	} else {
		wl, err := workloads.Load(o.file)
		if err != nil {
			return err
		}
		if app, err = harness.NewApp(wl, ilr.Options{Seed: *req.Seed, Spread: *req.Spread}); err != nil {
			return err
		}
		if rows, err = app.RunRows(ctx, modes, req.Instructions, req.Mutate()); err != nil {
			return err
		}
	}
	if o.emulate {
		rr, err := app.Emulate(emu.ModeEmulatedILR, app.W.Input, req.Instructions)
		if err != nil {
			return err
		}
		st, ilrSt := rr.Stats, app.R.Stats
		rows = append(rows, results.Run{
			Workload: app.W.Name,
			Mode:     "emulated-ilr",
			Seed:     app.R.Opts.Seed,
			Emu:      &st,
			Ilr:      &ilrSt,
		})
	}

	if o.statsJSON {
		return results.Write(w, results.NewRun(rows...))
	}
	for i, row := range rows {
		if o.traceN > 0 && i < len(modes) {
			if err := printTrace(w, app, modes[i], req, o.traceN); err != nil {
				return err
			}
		}
		report(w, row)
	}
	return nil
}

// printTrace prints the first n instructions the app executes under mode m,
// with the program counter in both spaces and the storage address (the
// paper's Fig. 5(c)). It is a run of its own, capped at n, so the reported
// rows stay those of the untraced run.
func printTrace(w io.Writer, app *harness.App, m cpu.Mode, req jobs.Request, n uint64) error {
	p, _, err := app.Pipeline(m, req.Mutate())
	if err != nil {
		return err
	}
	defer p.Release()
	fmt.Fprintf(w, "--- trace (%s): first %d instructions ---\n", m, n)
	fmt.Fprintf(w, "%-8s %-10s %-10s %-10s %-10s %s\n", "seq", "cycle", "UPC", "RPC", "storage", "instruction")
	p.SetTracer(func(e cpu.TraceEvent) {
		if e.Seq < n {
			fmt.Fprintf(w, "%-8d %-10d %#-10x %#-10x %#-10x %s\n",
				e.Seq, e.Cycle, e.UPC, e.RPC, e.Storage, e.Text)
		}
	})
	limit := n
	if req.Instructions > 0 && req.Instructions < n {
		limit = req.Instructions
	}
	_, err = p.Run(limit)
	return err
}

// report renders one row's text report by resolving canonical names against
// the statistics spine (the run's value-backed registry) instead of naming
// struct fields a second time.
func report(w io.Writer, row results.Run) {
	if row.Emu != nil {
		reportEmulated(w, *row.Emu)
		return
	}
	res := row.Result
	snap := res.Registry().Snapshot()
	u := func(key string) uint64 {
		v, _ := snap.Uint(key)
		return v
	}
	rate := func(numKey, denKey string) float64 {
		num, den := u(numKey), u(denKey)
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	fmt.Fprintf(w, "=== %s ===\n", row.Mode)
	fmt.Fprintf(w, "instructions  %d\n", u("cpu.instructions"))
	fmt.Fprintf(w, "cycles        %d\n", u("cpu.cycles"))
	fmt.Fprintf(w, "IPC           %.3f\n", rate("cpu.instructions", "cpu.cycles"))
	fmt.Fprintf(w, "stalls        fetch=%d mem=%d exec=%d control=%d drc=%d\n",
		u("cpu.stall.fetch"), u("cpu.stall.mem"), u("cpu.stall.exec"),
		u("cpu.stall.control"), u("cpu.stall.drc"))
	prefetchSettled := u("mem.il1.prefetch.useful") + u("mem.il1.prefetch.useless")
	prefetchUseless := 0.0
	if prefetchSettled > 0 {
		prefetchUseless = float64(u("mem.il1.prefetch.useless")) / float64(prefetchSettled)
	}
	fmt.Fprintf(w, "il1           accesses=%d miss=%.2f%% prefetch-useless=%.1f%%\n",
		u("mem.il1.accesses"), 100*rate("mem.il1.misses", "mem.il1.accesses"), 100*prefetchUseless)
	fmt.Fprintf(w, "dl1           accesses=%d miss=%.2f%%\n",
		u("mem.dl1.accesses"), 100*rate("mem.dl1.misses", "mem.dl1.accesses"))
	fmt.Fprintf(w, "l2            accesses=%d miss=%.2f%%\n",
		u("mem.l2.accesses"), 100*rate("mem.l2.misses", "mem.l2.accesses"))
	fmt.Fprintf(w, "dram          accesses=%d row-hit=%.1f%%\n",
		u("dram.accesses"), 100*rate("dram.row_hits", "dram.accesses"))
	condAcc := 0.0
	if u("bpred.cond.lookups") > 0 {
		condAcc = 1 - rate("bpred.cond.mispredicts", "bpred.cond.lookups")
	}
	fmt.Fprintf(w, "bpred         cond-acc=%.2f%% btb-miss=%d ras-mispred=%d\n",
		100*condAcc, u("bpred.btb.misses"), u("bpred.ras.mispredicts"))
	fmt.Fprintf(w, "itlb          accesses=%d misses=%d\n",
		u("cpu.itlb.accesses"), u("cpu.itlb.misses"))
	if row.Config.Mode.HasDRC() {
		fmt.Fprintf(w, "drc           lookups=%d miss=%.2f%% (rand=%d derand=%d walks=%d)\n",
			u("drc.lookups"), 100*rate("drc.misses", "drc.lookups"),
			u("drc.lookups.rand"), u("drc.lookups.derand"), u("drc.table_walks"))
		b := power.DefaultModel().Analyze(res, row.Config)
		fmt.Fprintf(w, "power         drc=%.1fpJ cpu=%.1fpJ overhead=%.3f%%\n",
			b.DRC, b.Total-b.DRAM, b.DRCOverheadPct())
		a := power.DefaultModel().AnalyzeArea(row.Config)
		fmt.Fprintf(w, "area          drc share of on-chip SRAM = %.3f%%\n", a.DRCOverheadPct())
	}
	if len(res.Out) > 0 && len(res.Out) < 64 {
		fmt.Fprintf(w, "output        %q\n", res.Out)
	}
	fmt.Fprintln(w)
}

// reportEmulated prints the software-ILR emulation counters, likewise
// resolved through the spine.
func reportEmulated(w io.Writer, st emu.Stats) {
	reg := stats.New()
	st.Register(reg)
	snap := reg.Snapshot()
	u := func(key string) uint64 {
		v, _ := snap.Uint(key)
		return v
	}
	fmt.Fprintf(w, "=== emulated-ilr ===\n")
	fmt.Fprintf(w, "instructions  %d\n", u("emu.instructions"))
	fmt.Fprintf(w, "host-cycles   %d\n", u("emu.host_cycles"))
	fmt.Fprintf(w, "control       taken=%d calls=%d rets=%d indirect=%d\n",
		u("emu.taken"), u("emu.calls"), u("emu.rets"), u("emu.indirect_cf"))
	fmt.Fprintf(w, "memory        loads=%d stores=%d\n", u("emu.loads"), u("emu.stores"))
	fmt.Fprintf(w, "unrandomized  %d\n", u("emu.unrandomized"))
	fmt.Fprintln(w)
}
