// Package multicore runs the multi-tenant interference campaign: a grid of
// cores × tenants cells, each cell co-running a tenant mix on a scheduled
// cluster (shared L2, private DRCs, quantum time-sharing) under every
// architecture mode, judged against per-tenant solo references. The headline
// is the consolidation claim of Sec. IV-D: because VCFR randomizes only
// read-only instruction-address state, its co-run degradation tracks the
// baseline's, while naive ILR pays extra for the scattered footprint its
// location maps press into the shared L2.
package multicore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
)

// Cell is one cores × tenants grid point.
type Cell struct {
	Cores   int
	Tenants int
}

// String renders the canonical cell name, e.g. "2c4t".
func (c Cell) String() string { return fmt.Sprintf("%dc%dt", c.Cores, c.Tenants) }

// ParseCells parses a comma-separated cell list ("2c4t,1c2t").
func ParseCells(s string) ([]Cell, error) {
	var out []Cell
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		var c Cell
		rest, ok := strings.CutSuffix(tok, "t")
		if ok {
			if cs, ts, found := strings.Cut(rest, "c"); found {
				var err1, err2 error
				c.Cores, err1 = strconv.Atoi(cs)
				c.Tenants, err2 = strconv.Atoi(ts)
				ok = err1 == nil && err2 == nil
			} else {
				ok = false
			}
		}
		if !ok || c.Cores < 1 || c.Tenants < 1 {
			return nil, fmt.Errorf("multicore: bad cell %q (want <cores>c<tenants>t, e.g. 2c4t)", tok)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("multicore: empty cell list")
	}
	return out, nil
}

// Config scopes one interference campaign. The zero value (after
// withDefaults) is the canonical campaign every surface runs, so the same
// Config always yields the same table bytes.
type Config struct {
	// Workloads is the tenant pool: tenant i of a cell runs workload
	// Workloads[i%len], randomization epoch i/len (same program, fresh
	// layout seed). Empty means harness.CampaignWorkloads.
	Workloads []string
	// Modes to evaluate; empty means all three architectures.
	Modes []cpu.Mode
	// Cells is the cores × tenants grid; empty means DefaultCells.
	Cells []Cell
	// Quantum is the scheduler time slice in committed instructions.
	// <= 0 means cpu.DefaultQuantum.
	Quantum uint64
	// Seed drives every per-instance layout seed. 0 means 42.
	Seed int64
	// Scale multiplies workload iteration counts. <= 0 means 1.
	Scale int
	// Spread is the ILR scatter factor. <= 0 means 8.
	Spread int
	// MaxInsts caps each tenant (and each solo reference). 0 means 25000.
	MaxInsts uint64
}

// DefaultCells is the canonical grid: one cell isolating pure shared-L2
// contention (every tenant alone on its core) and one isolating the
// switch-in cost (two tenants time-sharing one core).
func DefaultCells() []Cell { return []Cell{{Cores: 2, Tenants: 2}, {Cores: 1, Tenants: 2}} }

func (c Config) withDefaults() Config {
	harness.CampaignDefaults(&c.Workloads, &c.Modes, &c.Seed, &c.Scale, &c.Spread, &c.MaxInsts)
	if len(c.Cells) == 0 {
		c.Cells = DefaultCells()
	}
	if c.Quantum == 0 {
		c.Quantum = cpu.DefaultQuantum
	}
	return c
}

func (c Config) validate() error {
	if err := harness.CheckCampaign("multicore", c.Workloads, c.Modes); err != nil {
		return err
	}
	for _, cell := range c.Cells {
		if cell.Cores < 1 || cell.Tenants < 1 {
			return fmt.Errorf("multicore: bad cell %s", cell)
		}
	}
	return nil
}

// Report is one campaign's result. It is the campaign's results document
// (header, rows, per-(cell, mode) totals, per-mode summaries, Partial) as
// the envelope carries it, next to the defaulted Config that produced it.
type Report struct {
	results.Multicore
	Config Config
}

// instance is one prepared tenant: a workload at one randomization epoch.
type instance struct {
	workload string
	epoch    int
	seed     int64
	app      *harness.App
	err      error
}

// instanceSeed derives one tenant instance's layout seed from the campaign
// seed and the instance coordinates, so neither worker count nor cell
// membership changes any layout.
func instanceSeed(base int64, workload string, epoch int) int64 {
	return harness.CellSeed(base, "multicore", fmt.Sprintf("%s#%d", workload, epoch))
}

// soloRun is one (instance, mode) reference: the tenant alone on one core.
type soloRun struct {
	res  cpu.Result
	err  error
	done bool
}

// clusterRun is one (cell, mode) co-run.
type clusterRun struct {
	out   []cpu.Result
	errs  []error
	sched []cpu.SchedStats
	err   error // constructor/context error covering the whole cell
	done  bool
}

// RunCampaign executes the configured campaign on the runner's worker pool
// and returns the interference table. Solo references and cluster cells are
// independent units sharded across the pool; rows land in the fixed plan
// order (solo rows by instance then mode, then cell rows by cell, mode,
// tenant) regardless of worker count, so identical configs produce
// byte-identical reports. onProgress, if non-nil, receives live completion
// state (CellsDone/CellsTotal count scheduled units).
//
// Cancellation returns the partial report, not an error: finished units keep
// their counters, a cancelled cluster reports each tenant's partial result,
// and unexecuted units carry the context's error in their rows.
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

	// Phase 1: prepare one instance per tenant slot of the widest cell.
	// Instances are shared across cells and modes — tenant i means the same
	// image bytes everywhere — so slowdown factors compare like with like.
	maxTenants := 0
	for _, cell := range cfg.Cells {
		if cell.Tenants > maxTenants {
			maxTenants = cell.Tenants
		}
	}
	instances := make([]*instance, maxTenants)
	for i := range instances {
		inst := &instance{
			workload: cfg.Workloads[i%len(cfg.Workloads)],
			epoch:    i / len(cfg.Workloads),
		}
		inst.seed = instanceSeed(cfg.Seed, inst.workload, inst.epoch)
		inst.app, inst.err = r.Prepare(ctx, inst.workload, harness.Config{
			Scale:  cfg.Scale,
			Spread: cfg.Spread,
			Seed:   inst.seed,
		})
		instances[i] = inst
	}

	// Phase 2: run every unit — solo references then cluster cells — on the
	// shared pool. Each unit writes only its own slot, so aggregation order
	// is fixed no matter which worker ran what.
	solos := make([]soloRun, len(instances)*len(cfg.Modes))
	clusters := make([]clusterRun, len(cfg.Cells)*len(cfg.Modes))
	count := harness.ProgressCounter(len(solos)+len(clusters), onProgress)
	r.Shard(ctx, len(solos)+len(clusters), func(ctx context.Context, u int) {
		if u < len(solos) {
			inst, mode := instances[u/len(cfg.Modes)], cfg.Modes[u%len(cfg.Modes)]
			s := &solos[u]
			s.done = true
			if inst.err != nil {
				s.err = inst.err
				return
			}
			s.res, _, s.err = inst.app.RunContext(ctx, mode, cfg.MaxInsts, nil)
			count(s.res.Stats.Instructions)
			return
		}
		u -= len(solos)
		cell, mode := cfg.Cells[u/len(cfg.Modes)], cfg.Modes[u%len(cfg.Modes)]
		c := &clusters[u]
		c.done = true
		procs := make([]cpu.ClusterProc, cell.Tenants)
		for i := range procs {
			if err := instances[i].err; err != nil {
				c.err = err
				return
			}
			img, trans, randRA := mode.Deploy(instances[i].app.R)
			procs[i] = cpu.ClusterProc{Img: img, Trans: trans, RandRA: randRA, Input: instances[i].app.W.Input}
		}
		cl, err := cpu.NewScheduledCluster(cpu.DefaultConfig(mode),
			cpu.SchedConfig{Cores: cell.Cores, Quantum: cfg.Quantum}, procs)
		if err != nil {
			c.err = err
			return
		}
		out, runErr := cl.RunContext(ctx, cfg.MaxInsts)
		c.out, c.errs, c.sched = out, cl.Errors(), cl.SchedStats()
		if runErr != nil && errors.Is(runErr, ctx.Err()) {
			c.err = runErr // cancelled mid-cell: every tenant row is partial
		}
		var insts uint64
		for _, res := range out {
			insts += res.Stats.Instructions
		}
		count(insts)
	})

	// Phase 3: aggregate in plan order.
	rep := &Report{Config: cfg, Multicore: results.Multicore{
		Seed:      cfg.Seed,
		Scale:     cfg.Scale,
		Spread:    cfg.Spread,
		MaxInsts:  cfg.MaxInsts,
		Quantum:   cfg.Quantum,
		Workloads: cfg.Workloads,
		Modes:     harness.CampaignNames(cfg.Modes),
		Cells:     harness.CampaignNames(cfg.Cells),
	}}
	soloIPC := make([]float64, len(solos))
	for u, s := range solos {
		inst, mode := instances[u/len(cfg.Modes)], cfg.Modes[u%len(cfg.Modes)]
		row := results.MulticoreRow{
			Cell:     "solo",
			Cores:    1,
			Tenants:  1,
			Mode:     mode.String(),
			Tenant:   u / len(cfg.Modes),
			Workload: inst.workload,
			Epoch:    inst.epoch,
			Seed:     inst.seed,
		}
		switch {
		case s.err != nil:
			row.Error = harness.FirstLine(s.err.Error())
		case !s.done:
			row.Error = harness.FirstLine(harness.NotExecuted(ctx, notRun).Error())
		default:
			fillRow(&row, s.res)
			soloIPC[u] = row.IPC
		}
		rep.Rows = append(rep.Rows, row)
	}
	for u, c := range clusters {
		cell, mode := cfg.Cells[u/len(cfg.Modes)], cfg.Modes[u%len(cfg.Modes)]
		total := results.MulticoreTotal{Cell: cell.String(), Mode: mode.String()}
		cores := cell.Cores
		if cores > cell.Tenants {
			cores = cell.Tenants // the cluster clamps idle cores away
		}
		coreCycles := make([]uint64, cores)
		var slowdowns []float64
		for t := 0; t < cell.Tenants; t++ {
			inst := instances[t]
			row := results.MulticoreRow{
				Cell:     cell.String(),
				Cores:    cell.Cores,
				Tenants:  cell.Tenants,
				Mode:     mode.String(),
				Tenant:   t,
				Core:     t % cores,
				Workload: inst.workload,
				Epoch:    inst.epoch,
				Seed:     inst.seed,
			}
			switch {
			case c.err != nil:
				row.Error = harness.FirstLine(c.err.Error())
			case !c.done:
				row.Error = harness.FirstLine(harness.NotExecuted(ctx, notRun).Error())
			case c.errs[t] != nil:
				row.Error = harness.FirstLine(c.errs[t].Error())
			}
			if c.done && t < len(c.out) {
				res := c.out[t]
				fillRow(&row, res)
				if solo := soloIPC[t*len(cfg.Modes)+u%len(cfg.Modes)]; solo > 0 && row.IPC > 0 && row.Error == "" {
					row.SoloIPC = solo
					row.Slowdown = round4(solo / row.IPC)
					slowdowns = append(slowdowns, row.Slowdown)
				}
				total.Instructions += res.Stats.Instructions
				coreCycles[row.Core] += res.Stats.Cycles
				total.DRCFlushes += res.DRC.Flushes
				total.L2Accesses = res.L2.Accesses // shared: every tenant sees the same L2
				total.L2MissRate = res.L2.MissRate()
			}
			rep.Rows = append(rep.Rows, row)
		}
		for _, cyc := range coreCycles {
			if cyc > total.Cycles {
				total.Cycles = cyc // makespan: the busiest core bounds the co-run
			}
		}
		if total.Cycles > 0 {
			total.IPC = round4(float64(total.Instructions) / float64(total.Cycles))
		}
		for _, st := range c.sched {
			total.Quanta += st.Quanta
			total.Switches += st.Switches
			total.Preemptions += st.Preemptions
			total.BlockDrops += st.BlockDrops
		}
		total.MeanSlowdown = round4(harness.Geomean(slowdowns))
		rep.Totals = append(rep.Totals, total)
	}

	// Per-mode summaries over the co-run tenant rows — the consolidation
	// ranking the paper's Sec. IV-D argument predicts.
	for _, mode := range cfg.Modes {
		sum := results.MulticoreModeSummary{Mode: mode.String()}
		var slowdowns []float64
		for _, row := range rep.Rows {
			if row.Mode != sum.Mode || row.Cell == "solo" || row.Error != "" {
				continue
			}
			sum.Rows++
			sum.DRCFlushes += row.DRCFlushes
			if row.Slowdown > 0 {
				slowdowns = append(slowdowns, row.Slowdown)
				if row.Slowdown > sum.MaxSlowdown {
					sum.MaxSlowdown = row.Slowdown
				}
			}
		}
		for _, total := range rep.Totals {
			if total.Mode == sum.Mode {
				sum.Switches += total.Switches
			}
		}
		sum.MeanSlowdown = round4(harness.Geomean(slowdowns))
		sum.MaxSlowdown = round4(sum.MaxSlowdown)
		rep.Summaries = append(rep.Summaries, sum)
	}

	for _, row := range rep.Rows {
		if row.Error != "" {
			rep.Partial = true
		}
	}
	return rep, nil
}

// fillRow copies one tenant result's counters into its wire row. IPC and
// the DRC miss rate round to 4 decimals so the table is byte-stable across
// architectures that differ in the last float bits of a division.
func fillRow(row *results.MulticoreRow, res cpu.Result) {
	row.Instructions = res.Stats.Instructions
	row.Cycles = res.Stats.Cycles
	if res.Stats.Cycles > 0 {
		row.IPC = round4(float64(res.Stats.Instructions) / float64(res.Stats.Cycles))
	}
	row.DRCFlushes = res.DRC.Flushes
	row.DRCMissRate = round4(res.DRC.MissRate())
}

// Summary returns the mode's aggregate, or nil when the mode was not run.
func (rep *Report) Summary(mode cpu.Mode) *results.MulticoreModeSummary {
	for i := range rep.Summaries {
		if rep.Summaries[i].Mode == mode.String() {
			return &rep.Summaries[i]
		}
	}
	return nil
}

// Envelope wraps the report's document in the versioned wire envelope every
// surface emits (results schema v5, kind "multicore").
func (rep *Report) Envelope() results.Envelope { return results.NewMulticore(rep.Multicore) }

// Table renders the report as the human-readable interference table
// `experiments -mode multicore` prints: one row per tenant (solo references
// included), then the per-(cell, mode) totals, then the per-mode summary —
// the headline comparison.
func (rep *Report) Table() *harness.Table {
	t := &harness.Table{
		ID:    "multicore",
		Title: "multi-tenant interference (co-run slowdown vs solo, per mode)",
		Columns: []string{"cell", "mode", "tenant", "core", "workload", "epoch",
			"insts", "cycles", "ipc", "solo-ipc", "slowdown", "drc-flush", "drc-miss"},
		Note: fmt.Sprintf("seed %d, quantum %d insts, per-tenant cap %d insts; slowdown = solo IPC / co-run IPC (geomean per mode)",
			rep.Seed, rep.Quantum, rep.MaxInsts),
	}
	u := func(v uint64) string { return fmt.Sprintf("%d", v) }
	f := func(v float64) string { return fmt.Sprintf("%.4f", v) }
	opt := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return f(v)
	}
	for _, r := range rep.Rows {
		if r.Error != "" {
			t.Rows = append(t.Rows, []string{r.Cell, r.Mode, u(uint64(r.Tenant)), "", r.Workload,
				"", "error: " + r.Error})
			continue
		}
		t.Rows = append(t.Rows, []string{
			r.Cell, r.Mode, u(uint64(r.Tenant)), u(uint64(r.Core)), r.Workload,
			u(uint64(r.Epoch)), u(r.Instructions), u(r.Cycles), f(r.IPC),
			opt(r.SoloIPC), opt(r.Slowdown), u(r.DRCFlushes), f(r.DRCMissRate),
		})
	}
	for _, tt := range rep.Totals {
		t.Rows = append(t.Rows, []string{
			tt.Cell, tt.Mode, "(all)", "", "",
			"", u(tt.Instructions), u(tt.Cycles), f(tt.IPC),
			"", opt(tt.MeanSlowdown), u(tt.DRCFlushes),
			fmt.Sprintf("sw=%d pre=%d drop=%d", tt.Switches, tt.Preemptions, tt.BlockDrops),
		})
	}
	for _, s := range rep.Summaries {
		t.Rows = append(t.Rows, []string{
			"(co-run)", s.Mode, u(uint64(s.Rows)), "", "",
			"", "", "", "",
			"", f(s.MeanSlowdown), u(s.DRCFlushes),
			fmt.Sprintf("max=%.4f sw=%d", s.MaxSlowdown, s.Switches),
		})
	}
	return t
}

// notRun marks a unit that never ran although its campaign was not
// cancelled.
const notRun = "cell not executed"

// round4 keeps the wire floats at 4 decimals so reports are byte-stable.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }
