// Command attacksim runs adversary-in-the-loop attack campaigns against the
// simulator and prints the work-factor table the paper's security claim is
// about: a code-reuse attacker with a page-granular disclosure oracle owns
// the baseline machine in a leak or two, has to join leaked location-map and
// code pages under naive ILR (and loses that partial knowledge to every
// mid-execution re-randomization), and under VCFR gets every fired chain
// converted into a detected control violation.
//
// Usage:
//
//	attacksim
//	attacksim -workloads bzip2,sjeng -payloads print-and-exit,exfiltrate
//	attacksim -budget 32 -rerand-every 3 -seed 7 -json
//	attacksim -mode vcfr
//
// The default invocation is the canonical campaign (three workloads, three
// modes, three payloads, leak budget 16, re-randomization every 5 leak ops);
// `experiments -mode attacks` and a vcfrd kind=attacks job run the same
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

	"vcfr/internal/attack"
	"vcfr/internal/harness"
	"vcfr/internal/results"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "attacksim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadsF  = flag.String("workloads", "", "comma-separated workloads (default: the canonical campaign set)")
		mode        = flag.String("mode", "all", "architecture modes: baseline | naive | vcfr | all")
		payloadsF   = flag.String("payloads", "", "comma-separated payload templates (default: all three)")
		seed        = flag.Int64("seed", 42, "campaign seed (layouts, leak serve orders, and every epoch derive from it)")
		scale       = flag.Int("scale", 1, "workload iteration scale")
		spread      = flag.Int("spread", 0, "ILR scatter factor (0 = default)")
		maxInsts    = flag.Uint64("instructions", 0, "fired-run instruction cap (0 = default 25000)")
		budget      = flag.Int("budget", 0, "leak budget B0 the success rate is measured at (0 = default 16)")
		maxLeaks    = flag.Int("max-leaks", 0, "leak-op exploration horizon per arm (0 = derive from the cell's universe)")
		rerandEvery = flag.Int("rerand-every", 0, "re-randomization period in leak ops (0 = default 5)")
		advance     = flag.Uint64("advance", 0, "victim instructions executed per leak op (0 = default 2000)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel cell workers")
		jsonOut     = flag.Bool("json", false, "emit the campaign as a versioned results envelope instead of a text table")
	)
	flag.Parse()

	modes, err := attack.ParseModes(*mode)
	if err != nil {
		return err
	}
	cfg := attack.Config{
		Modes:        modes,
		Seed:         *seed,
		Scale:        *scale,
		Spread:       *spread,
		MaxInsts:     *maxInsts,
		LeakBudget:   *budget,
		MaxLeaks:     *maxLeaks,
		RerandEvery:  *rerandEvery,
		AdvanceInsts: *advance,
	}
	if *workloadsF != "" {
		cfg.Workloads = strings.Split(*workloadsF, ",")
	}
	if *payloadsF != "" {
		payloads, err := attack.ParsePayloads(strings.Split(*payloadsF, ","))
		if err != nil {
			return err
		}
		cfg.Payloads = payloads
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := attack.RunCampaign(ctx, harness.NewRunner(*workers), cfg, nil)
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
		return fmt.Errorf("campaign incomplete: some cells were not executed")
	}
	return nil
}
