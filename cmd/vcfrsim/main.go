// Command vcfrsim runs the cycle-level simulator on a workload or a VX
// source file, in any of the three architecture modes.
//
// Usage:
//
//	vcfrsim -workload h264ref -mode vcfr -drc 128
//	vcfrsim -mode naive -instructions 2000000 app.s
//	vcfrsim -workload xalan -mode all
//	vcfrsim -workload elf-fib -mode all
//	vcfrsim -elf ./prog.elf -mode vcfr
//	vcfrsim -workload h264ref -mode vcfr -record h264.vxt
//	vcfrsim -workload h264ref -replay h264.vxt -drc 64
//	vcfrsim -workload lbm -mode all -stats-json
//
// It prints IPC, the stall breakdown, cache statistics, and (under VCFR)
// DRC statistics and the dynamic-power breakdown. With -stats-json the full
// per-mode Results are emitted as one versioned results.Envelope — the same
// schema, and for workload runs the same bytes, that the vcfrd service
// returns from POST /v1/simulate.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"

	"vcfr/internal/core"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/power"
	"vcfr/internal/results"
	"vcfr/internal/stats"
	"vcfr/internal/trace"
	"vcfr/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcfrsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "built-in workload name (see -list)")
		elfPath  = flag.String("elf", "", "run a RV64 ELF binary, lifted through the real-binary front end")
		bundle   = flag.String("bundle", "", "run a randomization bundle produced by ilrrand")
		list     = flag.Bool("list", false, "list built-in workloads")
		mode     = flag.String("mode", "vcfr", "baseline | naive | vcfr | all")
		scale    = flag.Int("scale", 1, "workload scale")
		maxInsts = flag.Uint64("instructions", 0, "instruction cap (0 = to completion)")
		seed     = flag.Int64("seed", 1, "randomization seed")
		spread   = flag.Int("spread", 8, "scatter factor")
		drc      = flag.Int("drc", 128, "DRC entries")
		traceN   = flag.Uint64("trace", 0, "print the first N executed instructions (UPC/RPC/storage)")
		width    = flag.Int("width", 1, "issue width (1 = the paper's core, 2 = dual-issue)")
		ctxEvery = flag.Uint64("ctxswitch", 0, "flush process-private state every N instructions")
		record   = flag.String("record", "", "capture the run into a trace file (single mode only)")
		replayF  = flag.String("replay", "", "replay a trace file through the configured machine (mode taken from the trace)")
		jsonOut  = flag.Bool("stats-json", false, "emit a versioned results.Envelope as JSON instead of the text report")
		interval = flag.Uint64("interval", 0, "snapshot counters every N instructions; the per-window series lands in the envelope's intervals field")
		emulate  = flag.Bool("emulate", false, "also run the software-ILR emulation and report its counters (emulated-ilr row under -stats-json)")
	)
	flag.Parse()

	if *list {
		// The name/source/desc columns mirror the fields of GET /v1/workloads,
		// so the CLI listing and the service listing describe the same registry
		// the same way.
		for _, n := range workloads.Names() {
			w, err := workloads.ByName(n, 1)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %-10s %s\n", n, w.Source, w.Desc)
		}
		return nil
	}

	modes, err := cpu.ParseModes(*mode)
	if err != nil {
		return err
	}
	mutate := func(c *cpu.Config) {
		c.DRCEntries = *drc
		c.IssueWidth = *width
		c.ContextSwitchEvery = *ctxEvery
		c.SampleEvery = *interval
	}
	ccfgOf := func(m cpu.Mode) cpu.Config {
		c := cpu.DefaultConfig(m)
		mutate(&c)
		return c
	}
	// Flag bounds live in exactly one place — cpu.Config.Validate, the same
	// check the vcfrd service applies to request bodies — so a bad -drc or
	// -width fails here with the same message a bad HTTP request gets.
	for _, m := range modes {
		if err := ccfgOf(m).Validate(); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The canonical JSON path: a plain workload simulation goes through the
	// exact entry point the vcfrd service uses (harness.SimulateRuns +
	// results.Marshal), so `vcfrsim -workload W -stats-json` and
	// `POST /v1/simulate {"workload": "W", ...}` produce identical bytes.
	if *jsonOut && *workload != "" && *bundle == "" && *record == "" && *replayF == "" && !*emulate && flag.NArg() == 0 {
		cfg := harness.Config{Scale: *scale, MaxInsts: *maxInsts, Seed: *seed, Spread: *spread}
		rows, err := harness.SimulateRuns(ctx, harness.NewRunner(1), *workload, modes, cfg, mutate)
		if err != nil {
			return err
		}
		return results.Write(os.Stdout, results.NewRun(rows...))
	}

	var sys *core.System
	var input []byte
	name := *workload
	switch {
	case *bundle != "":
		data, err := os.ReadFile(*bundle)
		if err != nil {
			return err
		}
		res, err := ilr.UnmarshalBundle(data)
		if err != nil {
			return err
		}
		sys = core.FromRewrite(res)
		name = res.Orig.Name
	case *workload != "":
		w, err := workloads.ByName(*workload, *scale)
		if err != nil {
			return err
		}
		input = w.Input
		sys, err = core.NewSystem(w.Img, core.Options{Seed: *seed, Spread: *spread})
		if err != nil {
			return err
		}
	case *elfPath != "":
		data, err := os.ReadFile(*elfPath)
		if err != nil {
			return err
		}
		name = strings.TrimSuffix(filepath.Base(*elfPath), filepath.Ext(*elfPath))
		w, err := workloads.FromELF(data, name)
		if err != nil {
			return err
		}
		sys, err = core.NewSystem(w.Img, core.Options{Seed: *seed, Spread: *spread})
		if err != nil {
			return err
		}
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		name = strings.TrimSuffix(filepath.Base(flag.Arg(0)), filepath.Ext(flag.Arg(0)))
		sys, err = core.NewSystemFromSource(name, string(src), core.Options{Seed: *seed, Spread: *spread})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -workload, -elf, or a source file; see -h")
	}

	// With -stats-json, every remaining path accumulates envelope rows and
	// emits one results.Envelope at the end instead of text reports.
	var jsonRows []results.Run
	emit := func(w io.Writer, m cpu.Mode, res cpu.Result) error {
		if *jsonOut {
			row := results.Run{
				Workload:  name,
				Mode:      m.String(),
				Seed:      *seed,
				Config:    ccfgOf(m),
				Result:    res,
				Intervals: results.MakeIntervals(res.Intervals),
			}
			if m != cpu.ModeBaseline {
				st := sys.Stats()
				row.Ilr = &st
			}
			jsonRows = append(jsonRows, row)
			return nil
		}
		report(w, m, res, *drc)
		return nil
	}
	// -emulate appends the software-ILR emulation's counters — the emu.Stats
	// that used to be reachable only through the interpreter paths — as an
	// extra emulated-ilr row (or text block) after the pipeline modes.
	emitEmulated := func() error {
		if !*emulate {
			return nil
		}
		rr, err := sys.Run(core.ExecEmulated, input...)
		if err != nil {
			return err
		}
		if *jsonOut {
			st, ilrSt := rr.Stats, sys.Stats()
			jsonRows = append(jsonRows, results.Run{
				Workload: name,
				Mode:     "emulated-ilr",
				Seed:     *seed,
				Emu:      &st,
				Ilr:      &ilrSt,
			})
			return nil
		}
		reportEmulated(os.Stdout, rr.Stats)
		return nil
	}
	finish := func() error {
		if err := emitEmulated(); err != nil {
			return err
		}
		if !*jsonOut {
			return nil
		}
		return results.Write(os.Stdout, results.NewRun(jsonRows...))
	}

	// -replay drives the configured machine from a recorded trace instead of
	// executing; the architecture mode comes from the trace itself. The
	// machine must be built from the same (workload, seed, spread) the trace
	// was captured with — a mismatch is caught as a replay divergence.
	if *replayF != "" {
		tr, err := trace.LoadFile(*replayF)
		if err != nil {
			return err
		}
		m := tr.Meta.Mode
		p, err := sys.Pipeline(m, mutate)
		if err != nil {
			return err
		}
		instCap := tr.Meta.MaxInsts
		if *maxInsts > 0 {
			instCap = *maxInsts
		}
		res, err := trace.ReplayContext(ctx, tr, p, instCap)
		if err != nil {
			return err
		}
		if err := emit(os.Stdout, m, res); err != nil {
			return err
		}
		return finish()
	}

	// -record captures the run into a trace file alongside the normal report.
	if *record != "" {
		if len(modes) != 1 {
			return fmt.Errorf("-record needs a single -mode")
		}
		m := modes[0]
		p, err := sys.Pipeline(m, mutate)
		if err != nil {
			return err
		}
		tr, res, err := trace.CaptureContext(ctx, p, *maxInsts, trace.Meta{
			Workload: *workload, Mode: m, LayoutSeed: *seed, Spread: *spread,
			Scale: *scale, MaxInsts: *maxInsts,
		})
		if err != nil {
			return err
		}
		if err := tr.SaveFile(*record); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vcfrsim: recorded %d instructions to %s\n", tr.Len(), *record)
		if err := emit(os.Stdout, m, res); err != nil {
			return err
		}
		return finish()
	}

	// -mode all simulates the three architectures concurrently; each mode's
	// report is buffered and printed in mode order, so the output is
	// identical to a sequential run. Tracing interleaves prints with
	// execution, and -stats-json accumulates ordered envelope rows, so both
	// force the sequential path.
	if *traceN > 0 || *jsonOut || len(modes) == 1 {
		for _, m := range modes {
			res, err := simulate(sys, m, mutate, *maxInsts, *traceN)
			if err != nil {
				return err
			}
			if err := emit(os.Stdout, m, res); err != nil {
				return err
			}
		}
		return finish()
	}
	var (
		wg   sync.WaitGroup
		bufs = make([]bytes.Buffer, len(modes))
		errs = make([]error, len(modes))
	)
	for i, m := range modes {
		wg.Add(1)
		go func(i int, m cpu.Mode) {
			defer wg.Done()
			res, err := sys.Simulate(m, mutate, *maxInsts)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", m, err)
				return
			}
			errs[i] = emit(&bufs[i], m, res)
		}(i, m)
	}
	wg.Wait()
	for i := range modes {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := bufs[i].WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	return finish()
}

// simulate runs one mode, optionally tracing the first traceN instructions.
func simulate(sys *core.System, m cpu.Mode, mutate func(*cpu.Config), maxInsts, traceN uint64) (cpu.Result, error) {
	if traceN == 0 {
		return sys.Simulate(m, mutate, maxInsts)
	}
	p, err := sys.Pipeline(m, mutate)
	if err != nil {
		return cpu.Result{}, err
	}
	fmt.Printf("--- trace (%s): first %d instructions ---\n", m, traceN)
	fmt.Printf("%-8s %-10s %-10s %-10s %-10s %s\n", "seq", "cycle", "UPC", "RPC", "storage", "instruction")
	p.SetTracer(func(e cpu.TraceEvent) {
		if e.Seq < traceN {
			fmt.Printf("%-8d %-10d %#-10x %#-10x %#-10x %s\n",
				e.Seq, e.Cycle, e.UPC, e.RPC, e.Storage, e.Text)
		}
	})
	return p.Run(maxInsts)
}

// report renders the text report by resolving canonical names against the
// statistics spine (the run's value-backed registry) instead of naming
// struct fields a second time; the output bytes are unchanged from the
// pre-spine report.
func report(w io.Writer, mode cpu.Mode, res cpu.Result, drcEntries int) {
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
	fmt.Fprintf(w, "=== %s ===\n", mode)
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
	if mode == cpu.ModeVCFR {
		fmt.Fprintf(w, "drc           lookups=%d miss=%.2f%% (rand=%d derand=%d walks=%d)\n",
			u("drc.lookups"), 100*rate("drc.misses", "drc.lookups"),
			u("drc.lookups.rand"), u("drc.lookups.derand"), u("drc.table_walks"))
		cfg := cpu.DefaultConfig(mode)
		cfg.DRCEntries = drcEntries
		b := power.DefaultModel().Analyze(res, cfg)
		fmt.Fprintf(w, "power         drc=%.1fpJ cpu=%.1fpJ overhead=%.3f%%\n",
			b.DRC, b.Total-b.DRAM, b.DRCOverheadPct())
		a := power.DefaultModel().AnalyzeArea(cfg)
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
