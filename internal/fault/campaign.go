package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// Config scopes one fault-injection campaign. The zero value (after
// withDefaults) is the canonical campaign every surface runs: three
// workloads under all three modes, the full fault model, Injections
// injections per (workload, mode) cell — all drawn deterministically from
// Seed, so the same Config always yields the same coverage table.
type Config struct {
	// Workloads to inject into; empty means DefaultWorkloads.
	Workloads []string
	// Modes to evaluate; empty means all three architectures.
	Modes []cpu.Mode
	// Kinds is the fault model subset; empty means AllKinds. Kinds that
	// need VCFR (drc-entry) are skipped in non-VCFR cells.
	Kinds []Kind
	// Injections per (workload, mode) cell, split evenly across that
	// cell's applicable kinds. <= 0 means 120 (with the default three
	// workloads and three modes: 1080 injections).
	Injections int
	// Seed drives everything: the per-workload layout seed and every
	// injection's site choice and flip mask derive from it. 0 means 42.
	Seed int64
	// Scale multiplies workload iteration counts. <= 0 means 1.
	Scale int
	// Spread is the ILR scatter factor. <= 0 means 8.
	Spread int
	// MaxInsts caps the clean reference run (and thereby the injection
	// budget, see Reference.Budget). 0 means 25000 — long enough to cover
	// every fault kind's sites, short enough that a thousand injections
	// finish in seconds.
	MaxInsts uint64
	// Bits flipped per injection. <= 0 means 1 (the classic single-event
	// upset).
	Bits int
}

// DefaultWorkloads is the canonical campaign's workload set: three small,
// behaviorally distinct SPEC analogs, chosen so every fault kind has live
// sites in the reference window (xalan is the one analog that executes
// register-indirect transfers early; sjeng adds deep call/return activity;
// bzip2 is the branchy sequential case).
func DefaultWorkloads() []string { return []string{"bzip2", "sjeng", "xalan"} }

// ParseModes forwards to cpu.ParseModes.
//
// Deprecated: use cpu.ParseModes. The forward stays while the benchmark
// module (perfbench) calls it.
func ParseModes(s string) ([]cpu.Mode, error) { return cpu.ParseModes(s) }

func (c Config) withDefaults() Config {
	if len(c.Workloads) == 0 {
		c.Workloads = DefaultWorkloads()
	}
	if len(c.Modes) == 0 {
		c.Modes = cpu.AllModes()
	}
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
	if c.Injections <= 0 {
		c.Injections = 120
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Spread <= 0 {
		c.Spread = 8
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = 25000
	}
	if c.Bits <= 0 {
		c.Bits = 1
	}
	return c
}

func (c Config) validate() error {
	for _, w := range c.Workloads {
		if err := workloads.CheckName(w); err != nil {
			return err
		}
	}
	for _, m := range c.Modes {
		if !m.Valid() {
			return fmt.Errorf("fault: unknown mode %v", m)
		}
	}
	for _, k := range c.Kinds {
		if !k.valid() {
			return fmt.Errorf("fault: unknown fault kind %q", k)
		}
	}
	return nil
}

// Row is one (workload, mode, fault kind) line of the coverage table.
type Row struct {
	Workload string
	Mode     cpu.Mode
	Kind     Kind
	Stats    Stats
	// Error marks the row's injections as not (fully) executed: workload
	// preparation or reference capture failed, or the campaign was
	// cancelled mid-flight.
	Error string
}

// Report is one campaign's full result.
type Report struct {
	Config Config
	Rows   []Row
	Totals Stats
	// Partial is true when any row carries an error.
	Partial bool
}

// kindsFor filters the configured kinds down to the ones meaningful in a
// mode.
func kindsFor(kinds []Kind, mode cpu.Mode) []Kind {
	out := make([]Kind, 0, len(kinds))
	for _, k := range kinds {
		if k.NeedsDRC() && !mode.HasDRC() {
			continue
		}
		out = append(out, k)
	}
	return out
}

// splitInjections splits total across n kinds, remainder to the first ones.
func splitInjections(total, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}

// injectionSeed derives one injection's PRNG seed from the campaign seed
// and the injection's coordinates, so neither worker count nor scheduling
// order changes any injection.
func injectionSeed(base int64, workload string, mode cpu.Mode, kind Kind, j int) int64 {
	return harness.CellSeed(base, "faults",
		fmt.Sprintf("%s|%s|%s|%d", workload, mode, kind, j))
}

// cell is one (workload, mode) pair's shared state: the prepared app, the
// clean reference its injections are judged against, and per kind (cands
// is parallel to kinds) the reference's dynamic instruction indices that
// kind can fire on.
type cell struct {
	workload string
	mode     cpu.Mode
	app      *harness.App
	ref      Reference
	kinds    []Kind
	cands    [][]uint64
	err      error
}

// reference runs the cell's clean reference block-cached and records, for
// each of the cell's kinds, the instruction indices it can fire on.
func (c *cell) reference(ctx context.Context, maxInsts uint64) error {
	p, _, err := c.app.Pipeline(c.mode, nil)
	if err != nil {
		return err
	}
	cands := make([][]uint64, len(c.kinds))
	var seq uint64
	p.SetRecorder(func(rec cpu.ExecRecord) {
		class := rec.Inst.Class()
		for i, k := range c.kinds {
			if k.matches(class, rec.Taken) {
				cands[i] = append(cands[i], seq)
			}
		}
		seq++
	})
	res, err := p.RunContext(ctx, maxInsts)
	p.Release()
	if err != nil {
		return err
	}
	c.cands = cands
	c.ref = Reference{Insts: res.Stats.Instructions, Halted: res.Halted, ExitCode: res.ExitCode, Out: res.Out}
	return nil
}

// task is one planned injection.
type task struct {
	cell  *cell
	row   int // index into Report.Rows
	fault Fault
}

// RunCampaign executes the configured campaign on the runner's worker pool
// and returns the coverage table. Rows come back in the fixed (workload,
// mode, kind) order of the config regardless of worker count, so identical
// configs produce byte-identical reports. onProgress, if non-nil, receives
// live completion state (CellsDone/CellsTotal count injections).
//
// Cancellation returns the partial report, not an error: finished
// injections keep their counts and unexecuted rows carry the context's
// error, mirroring how sweeps report partial results.
func RunCampaign(ctx context.Context, r *harness.Runner, cfg Config, onProgress func(harness.Progress)) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if r == nil {
		r = harness.NewRunner(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rows, tasks := plan(cfg, prepareCells(ctx, r, cfg))

	// Phase 3: execute the injections, sharded across the pool. Outcomes
	// land in a per-task slot, so aggregation order (phase 4) is fixed no
	// matter which worker ran what.
	outcomes := make([]Outcome, len(tasks))
	count := harness.ProgressCounter(len(tasks), onProgress)
	r.Shard(ctx, len(tasks), func(ctx context.Context, i int) {
		t := tasks[i]
		o, insts := runInjection(ctx, t.cell, t.fault)
		outcomes[i] = o
		if o != "" {
			count(insts)
		}
	})

	// Phase 4: aggregate in plan order.
	rep := &Report{Config: cfg, Rows: rows}
	for i, t := range tasks {
		if o := outcomes[i]; o != "" {
			rep.Rows[t.row].Stats.Add(o)
		} else if rep.Rows[t.row].Error == "" {
			rep.Rows[t.row].Error = harness.FirstLine(harness.NotExecuted(ctx, notRun).Error())
		}
	}
	for i := range rep.Rows {
		if rep.Rows[i].Error != "" {
			rep.Partial = true
		}
		rep.Totals.Merge(rep.Rows[i].Stats)
	}
	return rep, nil
}

// prepareCells builds every (workload, mode) cell of a defaulted config and
// runs its clean reference (phases 0 and 1). A cell whose preparation or
// reference failed, or was never reached before cancellation, carries err.
func prepareCells(ctx context.Context, r *harness.Runner, cfg Config) []*cell {
	// Prepare each workload once; every mode cell shares the layout.
	apps, appErr := r.PrepareEach(ctx, "faults", cfg.Workloads,
		harness.Config{Seed: cfg.Seed, Scale: cfg.Scale, Spread: cfg.Spread})

	cells := make([]*cell, 0, len(cfg.Workloads)*len(cfg.Modes))
	for _, w := range cfg.Workloads {
		for _, m := range cfg.Modes {
			cells = append(cells, &cell{
				workload: w,
				mode:     m,
				app:      apps[w],
				kinds:    kindsFor(cfg.Kinds, m),
				err:      appErr[w],
			})
		}
	}

	// Phase 1: clean references, sharded across the pool.
	r.Shard(ctx, len(cells), func(ctx context.Context, i int) {
		c := cells[i]
		if c.err != nil {
			return
		}
		if err := c.reference(ctx, cfg.MaxInsts); err != nil {
			c.err = err
		}
	})
	for _, c := range cells {
		if c.err == nil && c.cands == nil {
			c.err = harness.NotExecuted(ctx, notRun)
		}
	}
	return cells
}

// plan lays out every injection up front, in fixed order (phase 2). The
// plan is fully deterministic: injection j of a (workload, mode, kind) row
// picks its site and flip mask from a seed derived from exactly those
// coordinates.
func plan(cfg Config, cells []*cell) (rows []Row, tasks []task) {
	for _, c := range cells {
		counts := splitInjections(cfg.Injections, len(c.kinds))
		for ki, k := range c.kinds {
			rowIdx := len(rows)
			rows = append(rows, Row{Workload: c.workload, Mode: c.mode, Kind: k})
			if c.err != nil {
				rows[rowIdx].Error = harness.FirstLine(c.err.Error())
				continue
			}
			cands := c.cands[ki]
			if len(cands) == 0 {
				// No site in the reference window can host this kind; the
				// row reports zero injections rather than an error.
				continue
			}
			for j := 0; j < counts[ki]; j++ {
				rng := rand.New(rand.NewSource(injectionSeed(cfg.Seed, c.workload, c.mode, k, j)))
				tasks = append(tasks, task{
					cell: c,
					row:  rowIdx,
					fault: Fault{
						Kind:  k,
						Index: cands[rng.Intn(len(cands))],
						Bits:  cfg.Bits,
						Seed:  rng.Int63(),
					},
				})
			}
		}
	}
	return rows, tasks
}

// notRun marks an injection that never ran although its campaign was not
// cancelled.
const notRun = "injection not executed"

// runInjection executes one injected run and classifies it. A cancelled run
// returns the empty outcome (not executed); a simulator panic classifies as
// crash — from the fault model's point of view the machine died.
func runInjection(ctx context.Context, c *cell, f Fault) (o Outcome, insts uint64) {
	defer func() {
		if r := recover(); r != nil {
			o = OutcomeCrash
		}
	}()
	p, _, err := c.app.Pipeline(c.mode, nil)
	if err != nil {
		return OutcomeCrash, 0
	}
	defer p.Release()
	res, err := runArmedAt(ctx, p, f, c.ref.Budget())
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return "", res.Stats.Instructions
	}
	return Classify(res, err, c.ref), res.Stats.Instructions
}

// runArmedAt runs p to budget with fault f injected. Every hook fires only
// on instruction f.Index, and every instruction before it matches the
// reference run, so p runs block-cached up to f.Index, steps that one
// instruction with the injector armed, and finishes block-cached. A
// block-cached run is bit-identical to the per-instruction path, so the
// Result equals that of arming the injector for the whole run. f.Index must
// be below budget.
func runArmedAt(ctx context.Context, p *cpu.Pipeline, f Fault, budget uint64) (res cpu.Result, err error) {
	if f.Index > 0 { // RunContext(ctx, 0) means emu.DefaultMaxSteps, not "nothing"
		res, err = p.RunContext(ctx, f.Index)
	}
	if err == nil && !res.Halted {
		p.SetInjector(NewInjector(f).Hooks())
		res, err = p.RunContext(ctx, f.Index+1)
		p.SetInjector(nil)
	}
	if err == nil && !res.Halted {
		res, err = p.RunContext(ctx, budget)
	}
	return res, err
}

// Envelope renders the report as the versioned wire document every surface
// emits (results schema v3, kind "campaign").
func (rep *Report) Envelope() results.Envelope {
	modes := make([]string, len(rep.Config.Modes))
	for i, m := range rep.Config.Modes {
		modes[i] = m.String()
	}
	kinds := make([]string, len(rep.Config.Kinds))
	for i, k := range rep.Config.Kinds {
		kinds[i] = string(k)
	}
	c := results.Campaign{
		Seed:       rep.Config.Seed,
		Scale:      rep.Config.Scale,
		Spread:     rep.Config.Spread,
		MaxInsts:   rep.Config.MaxInsts,
		Injections: rep.Config.Injections,
		Bits:       rep.Config.Bits,
		Workloads:  rep.Config.Workloads,
		Modes:      modes,
		Faults:     kinds,
		Rows:       make([]results.CampaignRow, 0, len(rep.Rows)),
	}
	for _, r := range rep.Rows {
		c.Rows = append(c.Rows, results.CampaignRow{
			Workload:      r.Workload,
			Mode:          r.Mode.String(),
			Fault:         string(r.Kind),
			Outcomes:      counts(r.Stats),
			DetectionRate: r.Stats.DetectionRate(),
			Error:         r.Error,
		})
	}
	c.Totals = counts(rep.Totals)
	return results.NewCampaign(c)
}

func counts(s Stats) results.CampaignCounts {
	return results.CampaignCounts{
		Injected:            s.Injected,
		DetectedUnmappedRPC: s.DetectedUnmappedR,
		DetectedIllegal:     s.DetectedIllegal,
		Crashes:             s.Crashes,
		SDC:                 s.SilentCorruptions,
		Masked:              s.Masked,
		Hangs:               s.Hangs,
	}
}

// Table renders the report as the human-readable coverage table
// `experiments -mode faults` prints: one row per (workload, mode, fault kind), then a
// per-mode aggregate over the control-flow kinds — the paper's headline
// comparison.
func (rep *Report) Table() *harness.Table {
	t := &harness.Table{
		ID:    "faults",
		Title: "fault-injection detection coverage (baseline vs naive-ILR vs VCFR)",
		Columns: []string{"workload", "mode", "fault", "inj", "det-rpc", "det-illegal",
			"crash", "sdc", "masked", "hang", "detected"},
		Note: fmt.Sprintf("seed %d, %d injections per workload x mode cell, %d-bit flips, reference cap %d insts",
			rep.Config.Seed, rep.Config.Injections, rep.Config.Bits, rep.Config.MaxInsts),
	}
	u := func(v uint64) string { return fmt.Sprintf("%d", v) }
	for _, r := range rep.Rows {
		if r.Error != "" {
			t.Rows = append(t.Rows, []string{r.Workload, r.Mode.String(), string(r.Kind),
				"error: " + r.Error})
			continue
		}
		s := r.Stats
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Mode.String(), string(r.Kind),
			u(s.Injected), u(s.DetectedUnmappedR), u(s.DetectedIllegal),
			u(s.Crashes), u(s.SilentCorruptions), u(s.Masked), u(s.Hangs),
			fmt.Sprintf("%.1f%%", 100*s.DetectionRate()),
		})
	}
	for _, agg := range rep.ControlAggregates() {
		s := agg.Stats
		t.Rows = append(t.Rows, []string{
			"(all)", agg.Mode.String(), "(control-flow)",
			u(s.Injected), u(s.DetectedUnmappedR), u(s.DetectedIllegal),
			u(s.Crashes), u(s.SilentCorruptions), u(s.Masked), u(s.Hangs),
			fmt.Sprintf("%.1f%%", 100*s.DetectionRate()),
		})
	}
	return t
}

// ModeAggregate is one mode's merged statistics over the control-flow
// fault kinds.
type ModeAggregate struct {
	Mode  cpu.Mode
	Stats Stats
}

// ControlAggregates merges each mode's rows over the control-flow fault
// kinds (branch/indirect/return targets and DRC entries — everything but
// opcode flips, which any decoder catches). This is the quantity the
// paper's dependability argument ranks: VCFR must detect strictly more of
// these than the baseline.
func (rep *Report) ControlAggregates() []ModeAggregate {
	control := make(map[Kind]bool)
	for _, k := range ControlKinds() {
		control[k] = true
	}
	out := make([]ModeAggregate, 0, len(rep.Config.Modes))
	for _, m := range rep.Config.Modes {
		agg := ModeAggregate{Mode: m}
		for _, r := range rep.Rows {
			if r.Mode == m && control[r.Kind] && r.Error == "" {
				agg.Stats.Merge(r.Stats)
			}
		}
		out = append(out, agg)
	}
	return out
}
