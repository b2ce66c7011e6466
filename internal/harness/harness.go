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

	"vcfr/internal/cfg"
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
	// Seed drives the randomization. Default DefaultSeed.
	Seed int64
	// Spread is the ILR scatter factor. Default DefaultSpread.
	Spread int
}

// The defaults of a zero Seed, Scale and Spread, shared by Config, the
// campaigns and the job requests.
const (
	DefaultSeed  = 42
	DefaultScale = 1
	// DefaultSpread places scattered instructions ~64 bytes apart (about
	// one per cache line): dense enough that the naive layout's damage is
	// dominated by the paper's mechanism (IL1/prefetch/L2 pressure) rather
	// than by iTLB saturation from a sparse gigantic image (see
	// EXPERIMENTS.md, "calibration").
	DefaultSpread = 8
)

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.Spread <= 0 {
		c.Spread = DefaultSpread
	}
	return c
}

// CampaignWorkloads is the canonical workload set of the fault, attack and
// multicore campaigns: three small, behaviorally distinct SPEC analogs.
// xalan is the one analog that executes register-indirect transfers early
// and spans several text pages, sjeng adds deep call/return activity, and
// bzip2 is the branchy sequential case, so every fault kind has live sites
// in the reference window and co-tenants contend for the shared L2.
func CampaignWorkloads() []string { return []string{"bzip2", "sjeng", "xalan"} }

// CampaignDefaults fills, in place, the scope fields every campaign Config
// shares: no workloads means CampaignWorkloads, no modes means all three
// architectures, a zero seed, scale or spread takes Config's default, and a
// zero instruction cap means 25,000 per run.
func CampaignDefaults(names *[]string, modes *[]cpu.Mode, seed *int64, scale, spread *int, maxInsts *uint64) {
	if len(*names) == 0 {
		*names = CampaignWorkloads()
	}
	if len(*modes) == 0 {
		*modes = cpu.AllModes()
	}
	c := Config{Seed: *seed, Scale: *scale, Spread: *spread}.withDefaults()
	*seed, *scale, *spread = c.Seed, c.Scale, c.Spread
	if *maxInsts == 0 {
		*maxInsts = 25_000
	}
}

// CampaignNames renders a campaign's scope list (modes, fault kinds,
// payloads, cells) as the strings its results document carries: each
// element's String method, or the string itself.
func CampaignNames[T any](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// CheckCampaign validates a campaign's workload names and modes; pkg
// prefixes the unknown-mode error.
func CheckCampaign(pkg string, names []string, modes []cpu.Mode) error {
	for _, w := range names {
		if err := workloads.CheckName(w); err != nil {
			return err
		}
	}
	for _, m := range modes {
		if !m.Valid() {
			return fmt.Errorf("%s: unknown mode %v", pkg, m)
		}
	}
	return nil
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
// harness default (DefaultSeed and DefaultSpread, as Config). The workload is not modified.
func NewApp(w workloads.Workload, opts ilr.Options) (*App, error) {
	prog, err := analyze(w)
	if err != nil {
		return nil, err
	}
	return prog.layout(Config{}, opts)
}

// Prepare builds and randomizes one workload.
func Prepare(name string, cfg Config) (*App, error) {
	return PrepareOpts(name, cfg, ilr.Options{})
}

// PrepareOpts is Prepare with explicit rewriter options (ablations); a zero
// Seed or Spread in opts takes cfg's.
func PrepareOpts(name string, cfg Config, opts ilr.Options) (*App, error) {
	cfg = cfg.withDefaults()
	prog, err := buildProgram(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return prog.layout(cfg, opts)
}

// program is the seed-independent half of an App: a workload and the CFG
// recovered from its image, as the paper's rewriter disassembles a binary
// once and then randomizes it. Every layout rewritten from one program
// shares its W.Img, W.Input and Graph, which nothing mutates.
type program struct {
	w workloads.Workload
	g *cfg.Graph
}

// buildProgram builds the named workload at scale and analyses it.
func buildProgram(name string, scale int) (*program, error) {
	w, err := workloads.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	return analyze(w)
}

// analyze recovers w's CFG.
func analyze(w workloads.Workload) (*program, error) {
	g, err := ilr.Analyze(w.Img)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", w.Name, err)
	}
	return &program{w: w, g: g}, nil
}

// layout rewrites one randomization of the program under opts. A zero Seed
// or Spread in opts takes c's, and a zero one in c the harness default.
func (p *program) layout(c Config, opts ilr.Options) (*App, error) {
	c = c.withDefaults()
	if opts.Seed == 0 {
		opts.Seed = c.Seed
	}
	if opts.Spread == 0 {
		opts.Spread = c.Spread
	}
	res, err := ilr.RewriteGraph(p.w.Img, p.g, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", p.w.Name, err)
	}
	return &App{W: p.w, R: res}, nil
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

// emuDeploys maps each interpreter mode to the fetch mode whose deployment
// it runs.
var emuDeploys = map[emu.Mode]cpu.Mode{
	emu.ModeNative:      cpu.ModeBaseline,
	emu.ModeScattered:   cpu.ModeNaiveILR,
	emu.ModeVCFR:        cpu.ModeVCFR,
	emu.ModeEmulatedILR: cpu.ModeNaiveILR,
}

// Emulate runs the app on the functional interpreter in mode, on what
// emuDeploys[mode] deploys, with input served to SysGetChar (Fig. 2's
// software-ILR baseline is emu.ModeEmulatedILR). maxInsts of 0 runs to
// completion.
func (a *App) Emulate(mode emu.Mode, input []byte, maxInsts uint64) (emu.RunResult, error) {
	img, trans, randRA := emuDeploys[mode].Deploy(a.R)
	m, err := emu.NewMachine(img, emu.Config{Mode: mode, Trans: trans, RandRA: randRA, Input: input})
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

// Geomean returns the geometric mean of positive values (0 when empty or
// when any value is not positive).
func Geomean(vs []float64) float64 {
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
