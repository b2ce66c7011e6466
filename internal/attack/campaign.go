package attack

import (
	"context"
	"fmt"
	"math/rand"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
)

// Config scopes one attack campaign. The zero value (after withDefaults) is
// the canonical campaign every surface runs: three workloads under all
// three modes and all three payloads, each cell attacked statically, by
// plain disclosure, and (except baseline) by disclosure against periodic
// re-randomization — all drawn deterministically from Seed, so the same
// Config always yields the same work-factor table.
type Config struct {
	// Workloads to attack; empty means harness.CampaignWorkloads.
	Workloads []string
	// Modes to evaluate; empty means all three architectures.
	Modes []cpu.Mode
	// Payloads is the attack-template subset; empty means AllPayloads.
	Payloads []Payload
	// Seed drives everything: per-workload layouts, leak serve orders, and
	// every epoch's re-randomization. 0 means 42.
	Seed int64
	// Scale multiplies workload iteration counts. <= 0 means 1.
	Scale int
	// Spread is the ILR scatter factor. <= 0 means 8.
	Spread int
	// MaxInsts caps each fired (hijacked) run. 0 means 25000.
	MaxInsts uint64
	// LeakBudget is the canonical disclosure allowance B0 the success-rate
	// metric is measured at: a cell counts as within budget when its plain
	// attacker succeeds using at most this many leak ops. <= 0 means 16.
	LeakBudget int
	// MaxLeaks caps each arm's leak ops (the exploration horizon, beyond
	// which an attacker is declared defeated). <= 0 derives it from the
	// cell's universe: 8 pages of budget per leakable page.
	MaxLeaks int
	// RerandEvery is the re-randomization arm's period, in leak ops per
	// epoch. <= 0 means 5.
	RerandEvery int
	// AdvanceInsts is how many instructions the victim executes between
	// leak ops — the race between execution and disclosure. 0 means 2000.
	AdvanceInsts uint64
}

// ParseModes forwards to cpu.ParseModes.
//
// Deprecated: use cpu.ParseModes. The forward stays while the benchmark
// module (perfbench) calls it.
func ParseModes(s string) ([]cpu.Mode, error) { return cpu.ParseModes(s) }

func (c Config) withDefaults() Config {
	harness.CampaignDefaults(&c.Workloads, &c.Modes, &c.Seed, &c.Scale, &c.Spread, &c.MaxInsts)
	if len(c.Payloads) == 0 {
		c.Payloads = AllPayloads()
	}
	if c.LeakBudget <= 0 {
		c.LeakBudget = 16
	}
	if c.RerandEvery <= 0 {
		c.RerandEvery = 5
	}
	if c.AdvanceInsts == 0 {
		c.AdvanceInsts = 2000
	}
	return c
}

func (c Config) validate() error {
	if err := harness.CheckCampaign("attack", c.Workloads, c.Modes); err != nil {
		return err
	}
	for _, p := range c.Payloads {
		if !p.valid() {
			return fmt.Errorf("attack: unknown payload %q", p)
		}
	}
	return nil
}

// maxLeaksFor resolves the exploration horizon for one cell.
func (c Config) maxLeaksFor(universe int) int {
	if c.MaxLeaks > 0 {
		return c.MaxLeaks
	}
	n := 8 * universe
	if n < 8*c.RerandEvery {
		n = 8 * c.RerandEvery
	}
	return n
}

// Report is one campaign's result. It is the campaign's results document
// (header, rows, per-mode summaries, totals, Partial) as the envelope
// carries it, next to the defaulted Config that produced it.
type Report struct {
	results.Attack
	Config Config
	// cells holds each row's typed coordinates and activity counters,
	// index-aligned with Rows; the counters sum to Totals.
	cells []cell
}

// cell is one row's typed coordinates plus the shard's slots for it: the
// attacker-activity counters its arms accumulate and whether the shard
// reached it.
type cell struct {
	workload string
	mode     cpu.Mode
	payload  Payload
	counts   results.AttackCounts
	done     bool
}

// armSeed derives one arm's PRNG seed from the campaign seed and the cell
// coordinates, so neither worker count nor scheduling order changes any
// serve order.
func armSeed(base int64, workload string, mode cpu.Mode, payload Payload, arm string) int64 {
	return harness.CellSeed(base, "attacks",
		fmt.Sprintf("%s|%s|%s|%s", workload, mode, payload, arm))
}

// epochSeed derives one re-randomization epoch's layout seed.
func epochSeed(base int64, workload string, mode cpu.Mode, payload Payload, epoch int) int64 {
	return harness.CellSeed(base, "attacks",
		fmt.Sprintf("%s|%s|%s|epoch%d", workload, mode, payload, epoch))
}

// RunCampaign executes the configured campaign on the runner's worker pool
// and returns the work-factor table. Rows come back in the fixed (workload,
// mode, payload) order of the config regardless of worker count, so
// identical configs produce byte-identical reports. onProgress, if non-nil,
// receives live completion state (CellsDone/CellsTotal count cells,
// Instructions counts victim instructions executed under attack).
//
// Cancellation returns the partial report, not an error: finished cells
// keep their results and unexecuted cells carry the context's error,
// mirroring the fault campaign.
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

	// Prepare each workload once; every cell shares the first-epoch layout.
	apps, appErr := r.PrepareEach(ctx, "attacks", cfg.Workloads,
		harness.Config{Seed: cfg.Seed, Scale: cfg.Scale, Spread: cfg.Spread})

	// The cell plan, in fixed order; results land in per-cell slots so
	// aggregation is deterministic no matter which worker ran what. Each
	// (workload, mode)'s static state hangs off the prepared app, so a warm
	// runner builds it once for every campaign (sharedFor).
	n := len(cfg.Workloads) * len(cfg.Modes) * len(cfg.Payloads)
	rep := &Report{Config: cfg, Attack: results.Attack{
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		Spread:       cfg.Spread,
		MaxInsts:     cfg.MaxInsts,
		LeakBudget:   cfg.LeakBudget,
		MaxLeaks:     cfg.MaxLeaks,
		RerandEvery:  cfg.RerandEvery,
		AdvanceInsts: cfg.AdvanceInsts,
		Workloads:    cfg.Workloads,
		Modes:        harness.CampaignNames(cfg.Modes),
		Payloads:     harness.CampaignNames(cfg.Payloads),
		Rows:         make([]results.AttackRow, 0, n),
	}}
	rep.cells = make([]cell, 0, n)
	for _, w := range cfg.Workloads {
		for _, m := range cfg.Modes {
			for _, p := range cfg.Payloads {
				row := results.AttackRow{Workload: w, Mode: m.String(), Payload: string(p)}
				if err := appErr[w]; err != nil {
					row.Error = harness.FirstLine(err.Error())
				}
				rep.Rows = append(rep.Rows, row)
				rep.cells = append(rep.cells, cell{workload: w, mode: m, payload: p})
			}
		}
	}

	count := harness.ProgressCounter(n, onProgress)
	r.Shard(ctx, n, func(ctx context.Context, i int) {
		c, row := &rep.cells[i], &rep.Rows[i]
		c.done = true
		if row.Error != "" {
			return
		}
		app := apps[c.workload]
		count(runCell(ctx, app, sharedFor(app, c.mode), cfg, c, row))
	})

	for i := range rep.Rows {
		row := &rep.Rows[i]
		// A cell the shard never reached (cancellation) reports why.
		if row.Error == "" && !rep.cells[i].done {
			row.Error = harness.FirstLine(harness.NotExecuted(ctx, notRun).Error())
		}
		if row.Error != "" {
			rep.Partial = true
		}
		Merge(&rep.Totals, rep.cells[i].counts)
	}
	rep.Summaries = summarize(cfg.Modes, rep.Rows)
	return rep, nil
}

// runCell executes one cell: static phase, plain disclosure arm, and (for
// randomized modes) the disclosure arm raced against re-randomization. It
// returns the victim instructions executed, for progress reporting.
func runCell(ctx context.Context, app *harness.App, sh *shared, cfg Config, c *cell, row *results.AttackRow) (insts uint64) {
	var err error
	if row.Static, err = runStatic(ctx, app, sh, c.mode, c.payload, cfg, &c.counts); err != nil {
		row.Error = harness.FirstLine(err.Error())
		return insts
	}
	var n uint64
	if row.Plain, n, err = runDisclosure(ctx, app, sh, cfg, c, false); err != nil {
		row.Error = harness.FirstLine(err.Error())
		return insts + n
	}
	insts += n
	if !c.mode.Randomized() {
		return insts // no layout to re-randomize: the rerand arm is moot
	}
	var d results.AttackDisclosure
	if d, n, err = runDisclosure(ctx, app, sh, cfg, c, true); err != nil {
		row.Error = harness.FirstLine(err.Error())
		return insts + n
	}
	insts += n
	row.Rerand = &d
	return insts
}

// runDisclosure runs one JIT-ROP arm: the victim executes, the oracle
// serves one page per op, and whenever the attacker's view grows enough to
// compile the payload, the chain is fired against the victim's CURRENT
// deployment. With rerand, the layout is swapped under the live victim
// every RerandEvery ops, expiring the epoch-scoped knowledge.
func runDisclosure(ctx context.Context, app *harness.App, sh *shared, cfg Config, c *cell, rerand bool) (results.AttackDisclosure, uint64, error) {
	arm := "plain"
	if rerand {
		arm = "rerand"
	}
	rng := rand.New(rand.NewSource(armSeed(cfg.Seed, c.workload, c.mode, c.payload, arm)))
	st := &c.counts
	o, err := newOracle(app, sh, c.mode, rng, st)
	if err != nil {
		return results.AttackDisclosure{}, 0, err
	}
	defer o.victim.Release()
	d := results.AttackDisclosure{Outcome: string(OutcomeNoChain)}
	maxOps := cfg.maxLeaksFor(o.universe())
	failed := make(map[string]bool)
	var ran uint64
	for op := 1; op <= maxOps; op++ {
		if err := ctx.Err(); err != nil {
			return d, ran, err
		}
		if rerand && op > 1 && (op-1)%cfg.RerandEvery == 0 {
			d.Epochs++
			next, err := o.res.Rerandomize(epochSeed(cfg.Seed, c.workload, c.mode, c.payload, d.Epochs))
			if err != nil {
				return d, ran, err
			}
			if err := o.applyEpoch(next); err != nil {
				return d, ran, err
			}
		}
		// The victim keeps computing while the attacker works — the race
		// the re-randomization defense is about.
		ran += cfg.AdvanceInsts
		if _, err := o.victim.Run(ran); err != nil {
			return d, ran, fmt.Errorf("attack: victim faulted without attacker help: %w", err)
		}
		if !o.leak() {
			if !rerand {
				break // nothing left to learn, ever: the attacker is done
			}
			continue // epoch exhausted; idle until the next swap
		}
		d.Leaks++
		if !o.grew {
			continue
		}
		o.grew = false
		ch, err := buildChain(o.pool(), c.payload)
		if err != nil || failed[chainKey(ch)] {
			continue
		}
		st.ChainsBuilt++
		d.ChainsBuilt++
		outcome := fire(ctx, app, c.mode, o.res, ch, c.payload, cfg.MaxInsts)
		if outcome == "" {
			return d, ran, harness.NotExecuted(ctx, notRun)
		}
		AddFire(st, outcome)
		d.ChainsFired++
		d.Outcome = string(outcome)
		d.CodePages, d.MapPages = o.codePagesServed, o.mapPagesServed
		if outcome == OutcomeSuccess {
			d.Success = true
			d.WithinBudget = d.Leaks <= cfg.LeakBudget
			return d, ran, nil
		}
		failed[chainKey(ch)] = true
		if outcome == OutcomeBlockedRPC || outcome == OutcomeBlockedIllegal {
			d.Blocked++
		}
	}
	d.CodePages, d.MapPages = o.codePagesServed, o.mapPagesServed
	return d, ran, nil
}

// notRun marks a cell or fire that never ran although its campaign was not
// cancelled.
const notRun = "attack cell not executed"

// summarize aggregates the rows per mode, in the config's mode order — the
// numbers the paper-style claim ranks. Cells carrying errors are excluded.
func summarize(modes []cpu.Mode, rows []results.AttackRow) []results.AttackModeSummary {
	out := make([]results.AttackModeSummary, 0, len(modes))
	for _, m := range modes {
		s := results.AttackModeSummary{Mode: m.String()}
		var leakSum, rleakSum int
		for _, r := range rows {
			if r.Mode != s.Mode || r.Error != "" {
				continue
			}
			s.Cells++
			if r.Static.Outcome == string(OutcomeSuccess) {
				s.StaticSuccesses++
			}
			if r.Plain.Success {
				s.Successes++
				leakSum += r.Plain.Leaks
			}
			if r.Plain.WithinBudget {
				s.WithinBudget++
			}
			if r.Rerand != nil && r.Rerand.Success {
				s.RerandSuccesses++
				rleakSum += r.Rerand.Leaks
			}
		}
		if s.Cells > 0 {
			s.SuccessRate = float64(s.WithinBudget) / float64(s.Cells)
		}
		if s.Successes > 0 {
			s.MeanLeaks = float64(leakSum) / float64(s.Successes)
		}
		if s.RerandSuccesses > 0 {
			s.MeanRerandLeaks = float64(rleakSum) / float64(s.RerandSuccesses)
		}
		out = append(out, s)
	}
	return out
}

// Envelope wraps the report's document in the versioned wire envelope every
// surface emits (results schema v4, kind "attack").
func (rep *Report) Envelope() results.Envelope { return results.NewAttack(rep.Attack) }

// Table renders the report as the human-readable work-factor table
// `experiments -mode attacks` prints: one row per cell, then the per-mode
// summary — the paper's headline comparison (baseline falls in a page or
// two, naive ILR falls to map+code pairing, VCFR converts every attempt
// into a detection).
func (rep *Report) Table() *harness.Table {
	t := &harness.Table{
		ID:    "attacks",
		Title: "adversary-in-the-loop attack evaluation (baseline vs naive-ILR vs VCFR)",
		Columns: []string{"workload", "mode", "payload", "static", "pool",
			"leaks", "pages", "fired", "outcome", "rr-leaks", "rr-outcome"},
		Note: fmt.Sprintf("seed %d, leak budget %d ops, re-randomize every %d ops, victim advance %d insts/op",
			rep.Seed, rep.LeakBudget, rep.RerandEvery, rep.AdvanceInsts),
	}
	for _, r := range rep.Rows {
		if r.Error != "" {
			t.Rows = append(t.Rows, []string{r.Workload, r.Mode, r.Payload, "error: " + r.Error})
			continue
		}
		static := r.Static.Outcome
		if !r.Static.Built {
			static = string(OutcomeNoChain)
		}
		rrLeaks, rrOutcome := "-", "-"
		if r.Rerand != nil {
			rrLeaks = fmt.Sprintf("%d", r.Rerand.Leaks)
			rrOutcome = r.Rerand.Outcome
		}
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Mode, r.Payload,
			static,
			fmt.Sprintf("%d", r.Static.PoolSize),
			fmt.Sprintf("%d", r.Plain.Leaks),
			fmt.Sprintf("%d+%d", r.Plain.CodePages, r.Plain.MapPages),
			fmt.Sprintf("%d", r.Plain.ChainsFired),
			r.Plain.Outcome,
			rrLeaks, rrOutcome,
		})
	}
	for _, s := range rep.Summaries {
		t.Rows = append(t.Rows, []string{
			"(all)", s.Mode, "(summary)",
			fmt.Sprintf("%d static-ok", s.StaticSuccesses),
			fmt.Sprintf("%d cells", s.Cells),
			fmt.Sprintf("%.1f mean", s.MeanLeaks),
			"-",
			fmt.Sprintf("%d ok", s.Successes),
			fmt.Sprintf("%.0f%% in-budget", 100*s.SuccessRate),
			fmt.Sprintf("%.1f mean", s.MeanRerandLeaks),
			fmt.Sprintf("%d ok", s.RerandSuccesses),
		})
	}
	return t
}
