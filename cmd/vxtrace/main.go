// Command vxtrace records, inspects, and replays execution traces
// (see internal/trace and docs/ARCHITECTURE.md for the file format).
//
// Usage:
//
//	vxtrace record -workload h264ref -mode vcfr -instructions 120000 -o h264.vxt
//	vxtrace info h264.vxt
//	vxtrace replay h264.vxt
//	vxtrace replay -drc 64 -width 2 h264.vxt
//
// record captures one execute-driven run into a trace file. replay rebuilds
// the same (workload, layout) pair from the trace's metadata, verifies the
// image hash, and drives the cycle-level pipeline from the recorded stream —
// optionally under a different timing configuration, which is the point:
// one recording answers any number of timing questions.
package main

import (
	"flag"
	"fmt"
	"os"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vxtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: vxtrace record|info|replay [flags] [file]")
	}
	switch args[0] {
	case "record":
		return record(args[1:])
	case "info":
		return info(args[1:])
	case "replay":
		return replay(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want record, info, or replay)", args[0])
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("vxtrace record", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "built-in workload name")
		modeF    = fs.String("mode", "vcfr", "baseline | naive | vcfr")
		seed     = fs.Int64("seed", 42, "randomization seed")
		spread   = fs.Int("spread", 0, "ILR scatter factor (0 = harness default)")
		scale    = fs.Int("scale", 1, "workload scale")
		maxInsts = fs.Uint64("instructions", 0, "instruction cap (0 = to completion)")
		out      = fs.String("o", "", "output trace file (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" || *out == "" {
		return fmt.Errorf("record needs -workload and -o")
	}
	modes, err := cpu.ParseModes(*modeF)
	if err != nil {
		return err
	}
	if len(modes) != 1 {
		return fmt.Errorf("record needs a single -mode")
	}
	mode := modes[0]
	cfg := harness.Config{Scale: *scale, Seed: *seed, Spread: *spread}
	app, err := harness.Prepare(*workload, cfg)
	if err != nil {
		return err
	}
	p, _, err := app.Pipeline(mode, nil)
	if err != nil {
		return err
	}
	key := harness.TraceKey(app, mode, *maxInsts)
	tr, res, err := trace.Capture(p, *maxInsts, trace.Meta{
		Workload:   app.W.Name,
		Mode:       mode,
		LayoutSeed: app.R.Opts.Seed,
		Spread:     app.R.Opts.Spread,
		Scale:      *scale,
		MaxInsts:   *maxInsts,
		ImageHash:  key.ImageHash,
	})
	if err != nil {
		return err
	}
	if err := tr.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("recorded %s under %s: %d instructions, %d cycles (IPC %.3f)\n",
		app.W.Name, mode, res.Stats.Instructions, res.Stats.Cycles, res.Stats.IPC())
	fmt.Printf("wrote %s: %d records, %d unique instructions\n", *out, tr.Len(), len(tr.Insts))
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("vxtrace info", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit a versioned results.Envelope instead of the text report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: vxtrace info [-json] FILE")
	}
	path := fs.Arg(0)
	tr, err := trace.LoadFile(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m := tr.Meta
	if *jsonOut {
		return results.Write(os.Stdout, results.NewTrace(results.Trace{
			Workload:     m.Workload,
			Mode:         m.Mode.String(),
			LayoutSeed:   m.LayoutSeed,
			Spread:       m.Spread,
			Scale:        m.Scale,
			ImageHash:    fmt.Sprintf("%#016x", m.ImageHash),
			MaxInsts:     m.MaxInsts,
			Records:      tr.Len(),
			UniqueInsts:  len(tr.Insts),
			Halted:       tr.Halted,
			ExitCode:     tr.ExitCode,
			OutputBytes:  len(tr.Out),
			EncodedBytes: st.Size(),
		}))
	}
	fmt.Printf("workload      %s\n", m.Workload)
	fmt.Printf("mode          %s\n", m.Mode)
	fmt.Printf("layout        seed=%d spread=%d scale=%d\n", m.LayoutSeed, m.Spread, m.Scale)
	fmt.Printf("image hash    %#016x\n", m.ImageHash)
	fmt.Printf("capture cap   %d instructions (0 = to completion)\n", m.MaxInsts)
	fmt.Printf("records       %d (%d unique instructions)\n", tr.Len(), len(tr.Insts))
	fmt.Printf("halted        %v (exit code %d, %d output bytes)\n", tr.Halted, tr.ExitCode, len(tr.Out))
	fmt.Printf("encoded size  %d bytes (%.2f bytes/record)\n", st.Size(), float64(st.Size())/float64(max(tr.Len(), 1)))
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("vxtrace replay", flag.ExitOnError)
	var (
		drc      = fs.Int("drc", 0, "override DRC entries (0 = default)")
		width    = fs.Int("width", 0, "override issue width (0 = default)")
		ctxEvery = fs.Uint64("ctxswitch", 0, "flush process-private state every N instructions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: vxtrace replay [flags] FILE")
	}
	tr, err := trace.LoadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	m := tr.Meta

	// Rebuild the captured (workload, layout) pair from the trace metadata
	// and prove it is the same image before replaying into it.
	cfg := harness.Config{Scale: m.Scale, Seed: m.LayoutSeed, Spread: m.Spread}
	app, err := harness.Prepare(m.Workload, cfg)
	if err != nil {
		return fmt.Errorf("rebuilding %s: %w", m.Workload, err)
	}
	if key := harness.TraceKey(app, m.Mode, m.MaxInsts); key.ImageHash != m.ImageHash {
		return fmt.Errorf("image hash mismatch: trace %#x, rebuilt %#x (workload changed since capture?)",
			m.ImageHash, key.ImageHash)
	}
	mutate := func(c *cpu.Config) {
		if *drc > 0 {
			c.DRCEntries = *drc
		}
		if *width > 0 {
			c.IssueWidth = *width
		}
		c.ContextSwitchEvery = *ctxEvery
	}
	p, ccfg, err := app.Pipeline(m.Mode, mutate)
	if err != nil {
		return err
	}
	res, err := trace.Replay(tr, p, m.MaxInsts)
	if err != nil {
		return err
	}
	s := res.Stats
	fmt.Printf("replayed %s under %s (drc=%d width=%d)\n", m.Workload, m.Mode, ccfg.DRCEntries, ccfg.IssueWidth)
	fmt.Printf("instructions  %d\n", s.Instructions)
	fmt.Printf("cycles        %d\n", s.Cycles)
	fmt.Printf("IPC           %.3f\n", s.IPC())
	fmt.Printf("stalls        fetch=%d mem=%d exec=%d control=%d drc=%d\n",
		s.FetchStall, s.MemStall, s.ExecStall, s.ControlStall, s.DRCStall)
	if m.Mode.HasDRC() {
		fmt.Printf("drc           lookups=%d miss=%.2f%% walks=%d\n",
			res.DRC.Lookups, 100*res.DRC.MissRate(), res.DRC.TableWalks)
	}
	return nil
}
