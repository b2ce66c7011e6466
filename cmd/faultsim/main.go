// Command faultsim runs fault-injection campaigns against the simulator and
// prints the detection-coverage table the paper's dependability claim is
// about: under complete instruction-address randomization, a corrupted
// control transfer lands on an unmapped randomized address and is detected,
// instead of silently corrupting the program.
//
// Usage:
//
//	faultsim
//	faultsim -workloads bzip2,mcf -faults branch-target,return-address
//	faultsim -injections 200 -seed 7 -json
//	faultsim -mode vcfr -bits 2
//
// The default invocation is the canonical campaign (three workloads, three
// modes, the full fault model, 120 injections per workload x mode cell);
// `experiments -mode faults` and a vcfrd kind=faults job run the same
// campaign and emit byte-identical envelopes with -json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadsF = flag.String("workloads", "", "comma-separated workloads (default: the canonical campaign set)")
		mode       = flag.String("mode", "all", "architecture modes: baseline | naive | vcfr | all")
		faultsF    = flag.String("faults", "", "comma-separated fault kinds (default: the full fault model)")
		injections = flag.Int("injections", 0, "injections per workload x mode cell (0 = default 120)")
		seed       = flag.Int64("seed", 42, "campaign seed (layouts, sites, and flip masks all derive from it)")
		scale      = flag.Int("scale", 1, "workload iteration scale")
		spread     = flag.Int("spread", 0, "ILR scatter factor (0 = default)")
		maxInsts   = flag.Uint64("instructions", 0, "reference-run instruction cap (0 = default 25000)")
		bits       = flag.Int("bits", 1, "bits flipped per injection")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel injection workers")
		traceCache = flag.Int("trace-cache", 256, "in-memory trace cache budget in MiB for the clean references (0 disables)")
		jsonOut    = flag.Bool("json", false, "emit the campaign as a versioned results envelope instead of a text table")
	)
	flag.Parse()

	modes, err := fault.ParseModes(*mode)
	if err != nil {
		return err
	}
	cfg := fault.Config{
		Modes:      modes,
		Injections: *injections,
		Seed:       *seed,
		Scale:      *scale,
		Spread:     *spread,
		MaxInsts:   *maxInsts,
		Bits:       *bits,
	}
	if *workloadsF != "" {
		cfg.Workloads = strings.Split(*workloadsF, ",")
	}
	if *faultsF != "" {
		kinds, err := fault.ParseKinds(strings.Split(*faultsF, ","))
		if err != nil {
			return err
		}
		cfg.Kinds = kinds
	}

	r := harness.NewRunner(*workers)
	if *traceCache > 0 {
		r.Traces = trace.NewCache(int64(*traceCache) << 20)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := fault.RunCampaign(ctx, r, cfg, nil)
	if err != nil {
		return err
	}
	if *jsonOut {
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
}
