package harness

import (
	"context"
	"fmt"
	"sort"

	"vcfr/internal/cpu"
	"vcfr/internal/gadget"
	"vcfr/internal/power"
	"vcfr/internal/workloads"
)

// An Experiment regenerates one table or figure of the paper. Run receives
// the Sweep whose worker pool shards the experiment's per-workload cells;
// a failed cell surfaces as an "error: ..." row rather than aborting the
// table (see Sweep.mapCells).
type Experiment struct {
	ID    string
	Desc  string
	Run   func(*Sweep, Config) (*Table, error)
	Paper string // the paper's headline number for EXPERIMENTS.md
}

// Experiments lists every reproducible table and figure, in paper order.
var Experiments = []Experiment{
	{"fig2", "software-emulated ILR slowdown vs native execution", Fig2,
		"execution time increases by over a hundred times"},
	{"fig3", "naive hardware ILR impact on IL1 / prefetch / L2", Fig3,
		"IL1 miss-rate ratio avg 9.4x, prefetch-miss +28%, L2 pressure +36%"},
	{"fig4", "naive hardware ILR normalized IPC", Fig4,
		"average IPC drops to 0.61-0.66 of baseline"},
	{"table1", "execution properties per architecture", Table1,
		"qualitative: VCFR keeps locality+prefetch with diversity"},
	{"table2", "static control-flow analysis per application", Table2,
		"direct transfers dominate; xalan has ~10x the indirect calls"},
	{"fig9", "functions with and without ret instructions", Fig9,
		"both populations present in every application"},
	{"fig11", "gadgets removed by randomization", Fig11,
		"~98% of gadgets removed on average"},
	{"payloads", "ROP payload assembly before/after randomization", Payloads,
		"payloads assemble for every app before, none after"},
	{"fig12", "VCFR speedup over naive hardware ILR (DRC 128)", Fig12,
		"average speedup 1.63x; >2x for namd/h264ref/mcf/xalan"},
	{"fig13", "normalized IPC for DRC sizes 512/128/64", Fig13,
		"avg 98.9% @512; >=97.9% @64 (2.1% overhead)"},
	{"fig14", "DRC miss rates at 512 and 64 entries", Fig14,
		"avg 4.5% @512, 20.6% @64; lbm and xalan worst"},
	{"fig15", "DRC dynamic power overhead (128 entries)", Fig15,
		"avg 0.18% of CPU dynamic power"},
	{"ablation-drc-assoc", "DRC associativity ablation", AblationDRCAssoc,
		"design claim: direct-mapped suffices, miss penalty is marginal"},
	{"ablation-drc-split", "unified vs split DRC ablation", AblationSplitDRC,
		"design claim: one unified buffer uses silicon better"},
	{"ablation-retrand", "return-address randomization modes", AblationRetRand,
		"arch support randomizes every direct call with no code growth"},
	{"ablation-predict-space", "branch prediction space ablation", AblationPredictSpace,
		"design claim: predicting on UPC avoids per-prediction DRC lookups"},
	{"ablation-page-confined", "page-confined randomization ablation", AblationPageConfined,
		"page confinement trades entropy for iTLB pressure"},
	{"ablation-drc2", "dedicated level-2 DRC vs shared-L2 walks", AblationDRC2,
		"design claim: sharing the L2 suffices; a dedicated L2 buffer is unnecessary"},
	{"ablation-context-switch", "context-switch flush cost vs DRC size", AblationContextSwitch,
		"tables are process context; switches restart the DRC cold"},
	{"entropy", "guessing-attack entropy vs scatter spread", Entropy,
		"randomization at instruction granularity gives a large randomization space (Sec. V-C)"},
	{"gadget-guessing", "blind gadget guessing over the 32-bit space", GadgetGuessing,
		"leak-free remote attackers are reduced to random guessing (Sec. II)"},
	{"extension-superscalar", "VCFR on a dual-issue core (future work)", ExtensionSuperscalar,
		"the paper conjectures the idea extends to wider processors (Sec. IX)"},
	{"extension-multicore", "two VCFR processes sharing an L2", ExtensionMulticore,
		"the approach applies to multi-core systems with ease (Sec. IV-D)"},
	{"baseline-inplace", "in-place randomization vs complete ILR", BaselineInPlace,
		"partial randomization cannot use the full address space (Sec. I)"},
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Fig2 measures the whole-program slowdown of interpreting the ILR binary in
// a software VM versus native (baseline pipeline) execution.
func Fig2(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig2",
		Title:   "Software-emulated ILR slowdown over native execution",
		Columns: []string{"app", "native-cycles", "emulated-cycles", "slowdown"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.Fig2Names),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			base, _, err := s.runMode(ctx, app, cpu.ModeBaseline, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			em, err := runEmulated(ctx, app, cfg.MaxInsts)
			if err != nil {
				return Cell{}, err
			}
			ratio := float64(em.Stats.HostCycles) / float64(base.Stats.Cycles)
			return Cell{
				Rows: [][]string{{name, u(base.Stats.Cycles), u(em.Stats.HostCycles), f1(ratio)}},
				Vals: []float64{ratio},
			}, nil
		})
	appendCells(t, cells)
	t.Rows = append(t.Rows, []string{"average", "", "", f1(mean(vals(cells, 0)))})
	t.Note = "paper: hundreds of times slower (Fig. 2)"
	return t, nil
}

// Fig3 compares naive hardware ILR against the baseline on the three cache
// metrics of the paper's Fig. 3.
func Fig3(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "fig3",
		Title: "Naive ILR cache impact (vs baseline)",
		Columns: []string{"app", "il1-miss-base", "il1-miss-naive", "miss-ratio",
			"pf-useless-base", "pf-useless-naive", "l2-pressure"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			base, _, err := s.runMode(ctx, app, cpu.ModeBaseline, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			naive, _, err := s.runMode(ctx, app, cpu.ModeNaiveILR, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			ratio := missRatio(naive.IL1.MissRate(), base.IL1.MissRate())
			pfDelta := naive.IL1.PrefetchMissRate() - base.IL1.PrefetchMissRate()
			l2Delta := float64(naive.L2.Accesses)/float64(base.L2.Accesses) - 1
			return Cell{
				Rows: [][]string{{name,
					pct(base.IL1.MissRate()), pct(naive.IL1.MissRate()), f1(ratio),
					pct(base.IL1.PrefetchMissRate()), pct(naive.IL1.PrefetchMissRate()),
					"+" + pct(l2Delta)}},
				Vals: []float64{ratio, pfDelta, l2Delta},
			}, nil
		})
	appendCells(t, cells)
	t.Rows = append(t.Rows, []string{"average", "", "", f1(mean(vals(cells, 0))),
		"", "+" + pct(mean(vals(cells, 1))), "+" + pct(mean(vals(cells, 2)))})
	t.Note = "paper: miss-rate ratio avg 9.4x (outliers to 558x), prefetch-miss +28%, L2 +36%. " +
		"Direction and per-app ordering match; the ratios are inflated because short runs " +
		"leave baseline IL1 miss rates compulsory-dominated (the paper's 500M-instruction " +
		"steady state puts a larger denominator under the same effect — its own 558x outlier " +
		"shows the denominator sensitivity)."
	return t, nil
}

func missRatio(naive, base float64) float64 {
	if base <= 0 {
		base = 1e-6 // compulsory-miss floor, avoids infinities on tiny runs
	}
	return naive / base
}

// Fig4 reports the naive hardware ILR IPC normalized to baseline.
func Fig4(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig4",
		Title:   "Naive hardware ILR normalized IPC",
		Columns: []string{"app", "ipc-base", "ipc-naive", "normalized"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			base, _, err := s.runMode(ctx, app, cpu.ModeBaseline, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			naive, _, err := s.runMode(ctx, app, cpu.ModeNaiveILR, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			n := naive.Stats.IPC() / base.Stats.IPC()
			return Cell{
				Rows: [][]string{{name, f3(base.Stats.IPC()), f3(naive.Stats.IPC()), f3(n)}},
				Vals: []float64{n},
			}, nil
		})
	appendCells(t, cells)
	t.Rows = append(t.Rows, []string{"average", "", "", f3(mean(vals(cells, 0)))})
	t.Note = "paper: average normalized IPC 0.61-0.66"
	return t, nil
}

// Table1 reproduces the paper's qualitative comparison, backed by measured
// evidence from one representative application.
func Table1(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	name := "h264ref"
	if ns := cfg.names(nil); len(ns) > 0 {
		name = ns[0]
	}
	t := &Table{
		ID:    "table1",
		Title: fmt.Sprintf("Execution properties per architecture (measured on %s)", name),
		Columns: []string{"architecture", "control-flow", "il1-accesses/inst",
			"pf-useless", "locality", "normalized-ipc"},
	}
	cells := s.mapCells(cfg, []string{name},
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			var c Cell
			var baseIPC float64
			for _, mode := range cpu.AllModes() {
				res, _, err := s.runMode(ctx, app, mode, cfg.MaxInsts, nil)
				if err != nil {
					return Cell{}, err
				}
				cf := "no"
				if mode.Randomized() {
					cf = "randomized"
				}
				if mode == cpu.ModeBaseline {
					baseIPC = res.Stats.IPC()
				}
				perInst := float64(res.IL1.Accesses) / float64(res.Stats.Instructions)
				locality := "preserved"
				if perInst > 0.5 {
					locality = "destroyed"
				}
				c.Rows = append(c.Rows, []string{
					mode.String(), cf, f3(perInst),
					pct(res.IL1.PrefetchMissRate()), locality,
					f3(res.Stats.IPC() / baseIPC)})
			}
			return c, nil
		})
	appendCells(t, cells)
	t.Note = "paper Table I: VCFR = diversity of ILR with the locality/prefetch of no-randomization"
	return t, nil
}

// Table2 reports the static control-flow counts (no simulation).
func Table2(s *Sweep, cfgIn Config) (*Table, error) {
	cfgIn = cfgIn.withDefaults()
	t := &Table{
		ID:    "table2",
		Title: "Static control-flow analysis",
		Columns: []string{"app", "direct-transfers", "indirect-transfers",
			"calls", "indirect-calls", "rets", "resolved-indirect"},
	}
	cells := s.mapCells(cfgIn, cfgIn.names(workloads.SpecNames),
		func(ctx context.Context, ccfg Config, name string) (Cell, error) {
			if err := ctx.Err(); err != nil {
				return Cell{}, err
			}
			prog, err := s.r.loadProgram(ctx, name, ccfg.Scale)
			if err != nil {
				return Cell{}, err
			}
			st := prog.g.Stats()
			return Cell{Rows: [][]string{{name, d(st.DirectTransfers),
				d(st.IndirectTransfers), d(st.Calls), d(st.IndirectCalls),
				d(st.Rets), d(st.ResolvedIndirect)}}}, nil
		})
	appendCells(t, cells)
	t.Note = "paper Table II shape: direct >> indirect; xalan dominates indirect calls"
	return t, nil
}

// Fig9 reports functions with and without ret instructions.
func Fig9(s *Sweep, cfgIn Config) (*Table, error) {
	cfgIn = cfgIn.withDefaults()
	t := &Table{
		ID:      "fig9",
		Title:   "Functions with and without ret instructions",
		Columns: []string{"app", "functions", "with-ret", "without-ret"},
	}
	cells := s.mapCells(cfgIn, cfgIn.names(workloads.SpecNames),
		func(ctx context.Context, ccfg Config, name string) (Cell, error) {
			if err := ctx.Err(); err != nil {
				return Cell{}, err
			}
			prog, err := s.r.loadProgram(ctx, name, ccfg.Scale)
			if err != nil {
				return Cell{}, err
			}
			st := prog.g.Stats()
			return Cell{Rows: [][]string{{name, d(st.Functions),
				d(st.FuncsWithRet), d(st.FuncsWithoutRet)}}}, nil
		})
	appendCells(t, cells)
	t.Note = "paper Fig. 9: callees may return without ret (mov/jmp patterns)"
	return t, nil
}

// Fig11 measures the gadget pool before and after randomization.
func Fig11(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig11",
		Title:   "Gadgets removed by control-flow randomization",
		Columns: []string{"app", "gadgets", "surviving", "removed"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			pool := gadget.Scan(app.R.Orig, gadget.DefaultMaxInsts)
			surv := gadget.Survivors(pool, app.R.Tables)
			rate := gadget.RemovalRate(pool, surv)
			return Cell{
				Rows: [][]string{{name, d(len(pool)), d(len(surv)), pct(rate)}},
				Vals: []float64{rate},
			}, nil
		})
	appendCells(t, cells)
	t.Rows = append(t.Rows, []string{"average", "", "", pct(mean(vals(cells, 0)))})
	t.Note = "paper Fig. 11: on average 98% of gadgets removed"
	return t, nil
}

// Payloads runs the Sec. V-B experiment: can ROPgadget-style payload
// templates be assembled before and after randomization?
func Payloads(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "payloads",
		Title:   "ROP payload assembly before/after randomization",
		Columns: []string{"app", "template", "before", "after"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			pool := gadget.Scan(app.R.Orig, gadget.DefaultMaxInsts)
			surv := gadget.Survivors(pool, app.R.Tables)
			before := gadget.TryAllTemplates(pool)
			after := gadget.TryAllTemplates(surv)
			var templates []string
			for tmpl := range before {
				templates = append(templates, tmpl)
			}
			sort.Strings(templates)
			var c Cell
			for _, tmpl := range templates {
				c.Rows = append(c.Rows, []string{name, tmpl,
					yesno(before[tmpl]), yesno(after[tmpl])})
			}
			return c, nil
		})
	appendCells(t, cells)
	t.Note = "paper Sec. V-B: before randomization payloads assemble for every app; after, none"
	return t, nil
}

func yesno(b bool) string {
	if b {
		return "assembles"
	}
	return "fails"
}

// Fig12 measures VCFR's speedup over naive hardware ILR with a 128-entry DRC.
func Fig12(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "fig12",
		Title:   "VCFR speedup over naive hardware ILR (DRC 128)",
		Columns: []string{"app", "naive-cycles", "vcfr-cycles", "speedup"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			naive, _, err := s.runMode(ctx, app, cpu.ModeNaiveILR, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			vcfr, _, err := s.runMode(ctx, app, cpu.ModeVCFR, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			sp := float64(naive.Stats.Cycles) / float64(vcfr.Stats.Cycles)
			return Cell{
				Rows: [][]string{{name, u(naive.Stats.Cycles), u(vcfr.Stats.Cycles), f2(sp)}},
				Vals: []float64{sp},
			}, nil
		})
	appendCells(t, cells)
	t.Rows = append(t.Rows, []string{"average", "", "", f2(mean(vals(cells, 0)))})
	t.Note = "paper Fig. 12: average 1.63x; namd/h264ref/mcf/xalan above 2x"
	return t, nil
}

// Fig13 sweeps the DRC size and reports IPC normalized to the baseline.
func Fig13(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sizes := []int{512, 128, 64}
	t := &Table{
		ID:      "fig13",
		Title:   "Normalized IPC under different DRC sizes",
		Columns: []string{"app", "drc-512", "drc-128", "drc-64"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			base, _, err := s.runMode(ctx, app, cpu.ModeBaseline, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			c := Cell{Rows: [][]string{{name}}}
			for _, size := range sizes {
				size := size
				res, _, err := s.runMode(ctx, app, cpu.ModeVCFR, cfg.MaxInsts,
					func(c *cpu.Config) { c.DRCEntries = size })
				if err != nil {
					return Cell{}, err
				}
				n := res.Stats.IPC() / base.Stats.IPC()
				c.Rows[0] = append(c.Rows[0], f3(n))
				c.Vals = append(c.Vals, n)
			}
			return c, nil
		})
	appendCells(t, cells)
	avg := []string{"average"}
	for i := range sizes {
		avg = append(avg, f3(mean(vals(cells, i))))
	}
	t.Rows = append(t.Rows, avg)
	t.Note = "paper Fig. 13: avg 98.9% @512 entries; overhead <= 2.1% even @64"
	return t, nil
}

// Fig14 reports DRC miss rates at 512 and 64 entries.
func Fig14(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	sizes := []int{512, 64}
	t := &Table{
		ID:      "fig14",
		Title:   "DRC miss rates",
		Columns: []string{"app", "miss-512", "miss-64", "lookups/1k-inst"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			row := []string{name}
			var lookupsPerK float64
			rates := make([]float64, len(sizes))
			for i, size := range sizes {
				size := size
				res, _, err := s.runMode(ctx, app, cpu.ModeVCFR, cfg.MaxInsts,
					func(c *cpu.Config) { c.DRCEntries = size })
				if err != nil {
					return Cell{}, err
				}
				rates[i] = res.DRC.MissRate()
				row = append(row, pct(res.DRC.MissRate()))
				lookupsPerK = 1000 * float64(res.DRC.Lookups) / float64(res.Stats.Instructions)
			}
			// Apps whose control flow is so predictable that the DRC sees only
			// cold lookups have meaningless miss *rates* (a handful of
			// compulsory misses over a handful of lookups); report them but
			// keep them out of the average (publish no Vals), which the paper
			// computes over apps with steady-state DRC traffic.
			c := Cell{}
			if lookupsPerK >= 0.5 {
				c.Vals = rates
				row = append(row, f1(lookupsPerK))
			} else {
				row = append(row, f1(lookupsPerK)+" (cold only)")
			}
			c.Rows = [][]string{row}
			return c, nil
		})
	appendCells(t, cells)
	t.Rows = append(t.Rows, []string{"average",
		pct(mean(vals(cells, 0))), pct(mean(vals(cells, 1))), ""})
	t.Note = "paper Fig. 14: avg 4.5% @512, 20.6% @64; lbm and xalancbmk worst. " +
		"Cold-only apps (fewer than 0.5 lookups per 1k instructions) are excluded from the average."
	return t, nil
}

// Fig15 reports the DRC's dynamic power overhead with a 128-entry DRC.
func Fig15(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	model := power.DefaultModel()
	t := &Table{
		ID:      "fig15",
		Title:   "DRC dynamic power overhead (128-entry DRC)",
		Columns: []string{"app", "drc-pJ", "cpu-pJ", "overhead"},
	}
	cells := s.mapCells(cfg, cfg.names(workloads.SpecNames),
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			res, ccfg, err := s.runMode(ctx, app, cpu.ModeVCFR, cfg.MaxInsts, nil)
			if err != nil {
				return Cell{}, err
			}
			b := model.Analyze(res, ccfg)
			return Cell{
				Rows: [][]string{{name, f1(b.DRC), f1(b.Total - b.DRAM),
					fmt.Sprintf("%.3f%%", b.DRCOverheadPct())}},
				Vals: []float64{b.DRCOverheadPct()},
			}, nil
		})
	appendCells(t, cells)
	t.Rows = append(t.Rows, []string{"average", "", "",
		fmt.Sprintf("%.3f%%", mean(vals(cells, 0)))})
	t.Note = "paper Fig. 15: average 0.18% of CPU dynamic power"
	return t, nil
}
