// Command gadgetscan is the ROPgadget-style scanner (Sec. V-B): it lists the
// gadget pool of a program file or built-in workload, shows which payload
// templates the pool supports, and — given a seed — how much of the pool
// survives randomization.
//
// Usage:
//
//	gadgetscan app.s
//	gadgetscan -workload xalan -randomize -seed 7
//	gadgetscan -print -max 3 ./prog.elf
//	gadgetscan -workload xalan -json
//
// A program file is read by workloads.Load: an RV64 ELF binary is lifted,
// anything else is assembled as VX source. -json emits the scan as a versioned results envelope (the same wire
// format every other tool in the repo speaks) instead of the text report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"vcfr/internal/gadget"
	"vcfr/internal/ilr"
	"vcfr/internal/program"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gadgetscan:", err)
		os.Exit(1)
	}
}

// run executes one command line (args without the program name), writing
// the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gadgetscan", flag.ExitOnError)
	var (
		workload  = fs.String("workload", "", "scan a built-in workload instead of a program file")
		maxInsts  = fs.Int("max", gadget.DefaultMaxInsts, "max gadget body length (instructions)")
		randomize = fs.Bool("randomize", false, "also report the post-randomization surviving pool")
		seed      = fs.Int64("seed", 1, "randomization seed (with -randomize)")
		print     = fs.Bool("print", false, "print every unique gadget")
		jsonOut   = fs.Bool("json", false, "emit the scan as a versioned results envelope instead of text")
	)
	fs.Parse(args)

	var (
		w   workloads.Workload
		err error
	)
	switch {
	case *workload != "" && fs.NArg() == 0:
		w, err = workloads.ByName(*workload, 1)
	case *workload == "" && fs.NArg() == 1:
		w, err = workloads.Load(fs.Arg(0))
	default:
		return fmt.Errorf("need -workload or one program file; see -h")
	}
	if err != nil {
		return err
	}
	img := w.Img

	if *jsonOut {
		env, err := scanEnvelope(img, *maxInsts, *randomize, *seed)
		if err != nil {
			return err
		}
		return results.Write(stdout, env)
	}

	pool := gadget.Scan(img, *maxInsts)
	unique := gadget.Unique(pool)
	fmt.Fprintf(stdout, "%s: %d gadgets (%d unique)\n", img.Name, len(pool), len(unique))
	reportCensus(stdout, pool)
	reportTemplates(stdout, "payloads", pool)

	if *print {
		lines := make([]string, 0, len(unique))
		for _, g := range unique {
			lines = append(lines, fmt.Sprintf("  %#08x  %s", g.Addr, g))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
	}

	if *randomize {
		res, err := ilr.Rewrite(img, ilr.Options{Seed: *seed})
		if err != nil {
			return err
		}
		surv := gadget.Survivors(pool, res.Tables)
		fmt.Fprintf(stdout, "after randomization (seed %d): %d surviving, %.1f%% removed\n",
			*seed, len(surv), 100*gadget.RemovalRate(pool, surv))
		reportTemplates(stdout, "payloads after", surv)
	}
	return nil
}

// scanEnvelope builds the -json results envelope: pool size, census, and
// payload feasibility, plus the surviving pool under one randomized layout
// when randomize is set.
func scanEnvelope(img *program.Image, maxInsts int, randomize bool, seed int64) (results.Envelope, error) {
	pool := gadget.Scan(img, maxInsts)
	rep := results.GadgetReport{
		Image:    img.Name,
		MaxInsts: maxInsts,
		Total:    len(pool),
		Unique:   len(gadget.Unique(pool)),
		Census:   censusMap(pool),
		Payloads: gadget.TryAllTemplates(pool),
	}
	if randomize {
		res, err := ilr.Rewrite(img, ilr.Options{Seed: seed})
		if err != nil {
			return results.Envelope{}, err
		}
		surv := gadget.Survivors(pool, res.Tables)
		rep.Randomized = &results.GadgetRandomized{
			Seed:        seed,
			Survivors:   len(surv),
			RemovalRate: gadget.RemovalRate(pool, surv),
			Payloads:    gadget.TryAllTemplates(surv),
		}
	}
	return results.NewGadget(rep), nil
}

// censusMap converts the kind census to the string-keyed map the results
// schema carries (encoding/json sorts the keys on the wire).
func censusMap(pool []gadget.Gadget) map[string]int {
	census := gadget.KindCensus(pool)
	out := make(map[string]int, len(census))
	for k, n := range census {
		out[string(k)] = n
	}
	return out
}

func reportCensus(w io.Writer, pool []gadget.Gadget) {
	census := gadget.KindCensus(pool)
	kinds := make([]string, 0, len(census))
	for k := range census {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	fmt.Fprint(w, "  capabilities:")
	for _, k := range kinds {
		fmt.Fprintf(w, " %s=%d", k, census[gadget.Kind(k)])
	}
	fmt.Fprintln(w)
}

func reportTemplates(w io.Writer, label string, pool []gadget.Gadget) {
	results := gadget.TryAllTemplates(pool)
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		status := "fails"
		if results[n] {
			status = "assembles"
		}
		fmt.Fprintf(w, "  %s: %-18s %s\n", label, n, status)
	}
}
