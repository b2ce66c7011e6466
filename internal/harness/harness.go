// Package harness runs the paper's experiments end to end: it builds a
// workload, applies the ILR rewriter, runs the cycle simulator in the
// configurations each table or figure needs, and renders the same rows the
// paper reports. Each experiment in experiments.go corresponds to one table
// or figure of the evaluation (see DESIGN.md's experiment index).
package harness

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// Config scopes an experiment run.
type Config struct {
	// Workloads to include; nil means the experiment's default set (the 11
	// SPEC analogs, or the Fig. 2 set for fig2).
	Workloads []string
	// Scale multiplies workload iteration counts. Default 1.
	Scale int
	// MaxInsts caps simulated instructions per run; 0 runs to completion
	// (the paper runs 500 M or to completion, whichever is longer; our
	// analogs complete in a few hundred thousand instructions per scale
	// unit).
	MaxInsts uint64
	// Seed drives the randomization. Default 42.
	Seed int64
	// Spread is the ILR scatter factor. Default 8 (see withDefaults).
	Spread int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Spread <= 0 {
		// Spread 8 places scattered instructions ~64 bytes apart (about one
		// per cache line): dense enough that the naive layout's damage is
		// dominated by the paper's mechanism (IL1/prefetch/L2 pressure)
		// rather than by iTLB saturation from a sparse gigantic image (see
		// EXPERIMENTS.md, "calibration").
		c.Spread = 8
	}
	return c
}

func (c Config) names(def []string) []string {
	if len(c.Workloads) > 0 {
		return c.Workloads
	}
	return def
}

// App is one prepared program: a workload and its ILR rewrite. It is the
// one type that pairs a program with its randomization; the same binary runs
// natively, under software ILR and under VCFR through it, with only the
// fetch path changed (Emulate for the functional modes, Pipeline and
// RunContext for the cycle-level ones).
type App struct {
	W workloads.Workload
	R *ilr.Result

	derivedMu sync.Mutex
	derived   map[any]*derivedValue
}

// derivedValue is one Derived entry, built once.
type derivedValue struct {
	once sync.Once
	v    any
}

// Derived returns the value build derives from the app for key, calling
// build at most once per app and key; concurrent callers of one key wait
// for that one build. It lets a package hang read-only state computed from
// W and R (an attacker's gadget scan, say) off a memoized App, so every
// campaign on a warm Runner shares it. Packages key with an unexported type
// of their own, so their entries never collide.
func (a *App) Derived(key any, build func() any) any {
	a.derivedMu.Lock()
	if a.derived == nil {
		a.derived = make(map[any]*derivedValue)
	}
	d := a.derived[key]
	if d == nil {
		d = &derivedValue{}
		a.derived[key] = d
	}
	a.derivedMu.Unlock()
	d.once.Do(func() { d.v = build() })
	return d.v
}

// NewApp randomizes w's image under opts. A zero Seed or Spread takes the
// harness default (42 and 8, as Config). The workload is not modified.
func NewApp(w workloads.Workload, opts ilr.Options) (*App, error) {
	def := Config{Seed: opts.Seed, Spread: opts.Spread}.withDefaults()
	opts.Seed, opts.Spread = def.Seed, def.Spread
	res, err := ilr.Rewrite(w.Img, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", w.Name, err)
	}
	return &App{W: w, R: res}, nil
}

// Prepare builds and randomizes one workload.
func Prepare(name string, cfg Config) (*App, error) {
	return PrepareOpts(name, cfg, ilr.Options{})
}

// PrepareOpts is Prepare with explicit rewriter options (ablations); a zero
// Seed or Spread in opts takes cfg's.
func PrepareOpts(name string, cfg Config, opts ilr.Options) (*App, error) {
	cfg = cfg.withDefaults()
	w, err := workloads.ByName(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	if opts.Spread == 0 {
		opts.Spread = cfg.Spread
	}
	return NewApp(w, opts)
}

// Pipeline builds a fresh pipeline for one run of the app in the given mode,
// with the workload's input installed. mutate, if non-nil, adjusts the
// default machine configuration (DRC size, ablation switches, ...). The
// caller Releases the pipeline once it has read the run's Result.
func (a *App) Pipeline(mode cpu.Mode, mutate func(*cpu.Config)) (*cpu.Pipeline, cpu.Config, error) {
	ccfg := cpu.DefaultConfig(mode)
	if mutate != nil {
		mutate(&ccfg)
	}
	img, trans, randRA := mode.Deploy(a.R)
	p, err := cpu.New(img, ccfg, trans, randRA)
	if err != nil {
		return nil, ccfg, err
	}
	p.SetInput(a.W.Input)
	return p, ccfg, nil
}

// Run simulates the app in the given mode. mutate, if non-nil, adjusts the
// default machine configuration (DRC size, ablation switches, ...).
func (a *App) Run(mode cpu.Mode, maxInsts uint64, mutate func(*cpu.Config)) (cpu.Result, cpu.Config, error) {
	return a.RunContext(context.Background(), mode, maxInsts, mutate)
}

// RunContext is Run with mid-run cancellation: a cancelled or deadline-
// expired context stops the simulation within a few thousand instructions
// (see cpu.Pipeline.RunContext) instead of running to the instruction cap.
func (a *App) RunContext(ctx context.Context, mode cpu.Mode, maxInsts uint64, mutate func(*cpu.Config)) (cpu.Result, cpu.Config, error) {
	p, ccfg, err := a.Pipeline(mode, mutate)
	if err != nil {
		return cpu.Result{}, ccfg, err
	}
	res, err := p.RunContext(ctx, maxInsts)
	p.Release()
	if err != nil {
		return res, ccfg, fmt.Errorf("harness: %s under %v: %w", a.W.Name, mode, err)
	}
	return res, ccfg, nil
}

// Emulate runs the app on the functional interpreter in mode, with input
// served to SysGetChar: the original binary under emu.ModeNative, the VCFR
// binary under emu.ModeVCFR, the scattered binary under emu.ModeScattered
// and emu.ModeEmulatedILR (Fig. 2's software-ILR baseline). maxInsts of 0
// runs to completion.
func (a *App) Emulate(mode emu.Mode, input []byte, maxInsts uint64) (emu.RunResult, error) {
	cfg := emu.Config{Mode: mode, Trans: a.R.Tables, Input: input}
	img := a.R.Scattered
	switch mode {
	case emu.ModeNative:
		img, cfg.Trans = a.R.Orig, nil
	case emu.ModeVCFR:
		img, cfg.RandRA = a.R.VCFR, a.R.RandRA
	}
	m, err := emu.NewMachine(img, cfg)
	if err != nil {
		return emu.RunResult{}, err
	}
	if maxInsts == 0 {
		return m.Run()
	}
	return m.RunN(maxInsts)
}

// RunEmulated is Emulate under the software-ILR cost model with the
// workload's input. Only the benchmark's traced layer still calls it.
func (a *App) RunEmulated(maxInsts uint64) (emu.RunResult, error) {
	return a.Emulate(emu.ModeEmulatedILR, a.W.Input, maxInsts)
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Note    string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Formatting helpers.

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func u(v uint64) string   { return fmt.Sprintf("%d", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}

// mean returns the arithmetic mean.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}
