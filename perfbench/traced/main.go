// Command traced is the benchmark's per-layer measurement. It replays one
// workload's work in-process through the public functions of each layer
// (workload build, assembly, ELF lift, ILR rewrite, pipeline, trace,
// emulator, gadget scan, campaigns, results), first untraced and then with
// a span around every call, and runs the other workloads' sequences at
// probe size so that every layer is measured. It prints a reconciliation
// and attribution report on stderr, writes the spans as JSON, and prints
// the per-layer metrics as its last stdout line.
//
// perfbench runs it for --trace 1; on its own:
//
//	traced -workload sweep -seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vcfr/internal/workloads"
	"vcfr/perfbench/spec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "sweep | paper | service")
		seed     = flag.Int64("seed", 1, "benchmark seed")
		digests  = flag.String("digests", "perfbench/digests.json", "pinned output digests")
		spansDir = flag.String("spans", ".bench_build/spans", "directory the spans are written to")
	)
	flag.Parse()
	seq, ok := sequences[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweep, paper or service)", *workload)
	}
	dg, err := spec.LoadDigests(*digests)
	if err != nil {
		return err
	}
	ctx := context.Background()
	pool := spec.PoolSeed(*seed)
	// Program inputs come from building each workload in full, which the
	// traced layers redo piecewise; build them once, before any timing.
	inputs := map[string][]byte{}
	for _, name := range workloads.Names() {
		for _, scale := range []int{1, spec.SweepScale} {
			w, err := workloads.ByName(name, scale)
			if err != nil {
				return err
			}
			inputs[inputKey(name, scale)] = w.Input
		}
	}

	type probe struct {
		name string
		run  func(*lab)
	}
	var probes []probe
	for _, name := range []string{"sweep", "paper", "service"} {
		if s := sequences[name]; name != *workload {
			probes = append(probes, probe{"probe." + name, func(l *lab) { s(l, false) }})
		}
	}
	probes = append(probes, probe{"probe.inner", seqInner})
	// An untimed run of the probes first, so every layer is warm before the
	// workload's passes are timed.
	warm := newLab(ctx, false, pool, *seed, dg, inputs)
	for _, p := range probes {
		p.run(warm)
	}

	// The untraced wall is the mean of one pass before and one after the
	// traced pass, so drift does not land on the tracing overhead. Every
	// pass starts from a fresh lab and a collected heap.
	var untraced time.Duration
	attempted, failed := warm.attempted, warm.failed
	untracedPass := func() {
		runtime.GC()
		u := newLab(ctx, false, pool, *seed, dg, inputs)
		untraced += timed(func() { seq(u, true) }) / 2
		attempted, failed = attempted+u.attempted, failed+u.failed
	}
	l := newLab(ctx, true, pool, *seed, dg, inputs)
	measure := func(name string, fn func()) recon {
		from := len(l.tr.spans)
		l.tr.run = name
		r := recon{name: name, traced: timed(fn)}
		for _, d := range selfTimes(l.tr.spans[from:]) {
			r.layerSelf += d
		}
		return r
	}
	untracedPass()
	runtime.GC()
	w := measure(*workload, func() { seq(l, true) })
	untracedPass()
	w.untraced = untraced
	rows := []recon{w}
	for _, p := range probes {
		rows = append(rows, measure(p.name, func() { p.run(l) }))
	}

	m := layerMetrics(l, aggregate(l.tr.spans, selfTimes(l.tr.spans)))
	m["harness.other"] = metric{ms(w.other()), "ms"}
	m["harness.trace_overhead_ms"] = metric{ms(w.traced - w.untraced), "ms"}
	report(os.Stderr, rows, m, l.figures)

	if err := os.MkdirAll(*spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(*spansDir, fmt.Sprintf("%s-%d.json", *workload, *seed))
	if err := l.tr.save(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "traced: %d spans written to %s\n", len(l.tr.spans), path)

	out, err := json.Marshal(struct {
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{attempted + l.attempted, failed + l.failed, m})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}
