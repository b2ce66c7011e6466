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

// Disclosure is one arm's work-factor result: how much the leak oracle had
// to serve before the attacker won, or the proof it never did.
type Disclosure struct {
	Success      bool    `json:"success"`
	WithinBudget bool    `json:"within_budget"` // Success with Leaks <= LeakBudget
	Leaks        int     `json:"leaks"`         // leak ops actually served
	CodePages    int     `json:"code_pages"`
	MapPages     int     `json:"map_pages"`
	ChainsBuilt  int     `json:"chains_built"`
	ChainsFired  int     `json:"chains_fired"`
	Blocked      int     `json:"blocked"` // fires the machine detected
	Epochs       int     `json:"epochs"`  // re-randomizations survived (rerand arm)
	Outcome      Outcome `json:"outcome"` // final fire verdict, or no-chain
}

// Row is one (workload, mode, payload) cell of the campaign: the static
// full-knowledge phase plus the plain and re-randomized disclosure arms.
type Row struct {
	Workload string
	Mode     cpu.Mode
	Payload  Payload
	Static   Static
	Plain    Disclosure
	// Rerand is the disclosure arm raced against periodic re-randomization;
	// nil under baseline (no layout to re-randomize).
	Rerand *Disclosure
	Stats  Stats
	// Error marks the cell as not (fully) executed.
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
	rep := &Report{Config: cfg}
	for _, w := range cfg.Workloads {
		for _, m := range cfg.Modes {
			for _, p := range cfg.Payloads {
				row := Row{Workload: w, Mode: m, Payload: p}
				if err := appErr[w]; err != nil {
					row.Error = harness.FirstLine(err.Error())
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}

	count := harness.ProgressCounter(len(rep.Rows), onProgress)
	r.Shard(ctx, len(rep.Rows), func(ctx context.Context, i int) {
		row := &rep.Rows[i]
		if row.Error != "" {
			return
		}
		app := apps[row.Workload]
		count(runCell(ctx, app, sharedFor(app, row.Mode), cfg, row))
	})

	for i := range rep.Rows {
		row := &rep.Rows[i]
		// A cell the shard never reached (cancellation) reports why.
		if row.Error == "" && row.Stats.ChainsBuilt == 0 && row.Stats.Leaks == 0 &&
			row.Static.PoolSize == 0 {
			row.Error = harness.FirstLine(harness.NotExecuted(ctx, notRun).Error())
		}
		if row.Error != "" {
			rep.Partial = true
		}
		rep.Totals.Merge(row.Stats)
	}
	return rep, nil
}

// runCell executes one cell: static phase, plain disclosure arm, and (for
// randomized modes) the disclosure arm raced against re-randomization. It
// returns the victim instructions executed, for progress reporting.
func runCell(ctx context.Context, app *harness.App, sh *shared, cfg Config, row *Row) (insts uint64) {
	st := &row.Stats
	var err error
	if row.Static, err = runStatic(ctx, app, sh, row.Mode, row.Payload, cfg, st); err != nil {
		row.Error = harness.FirstLine(err.Error())
		return insts
	}
	var n uint64
	if row.Plain, n, err = runDisclosure(ctx, app, sh, cfg, row, false, st); err != nil {
		row.Error = harness.FirstLine(err.Error())
		return insts + n
	}
	insts += n
	if !row.Mode.Randomized() {
		return insts // no layout to re-randomize: the rerand arm is moot
	}
	var d Disclosure
	if d, n, err = runDisclosure(ctx, app, sh, cfg, row, true, st); err != nil {
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
func runDisclosure(ctx context.Context, app *harness.App, sh *shared, cfg Config, row *Row, rerand bool, st *Stats) (Disclosure, uint64, error) {
	arm := "plain"
	if rerand {
		arm = "rerand"
	}
	rng := rand.New(rand.NewSource(armSeed(cfg.Seed, row.Workload, row.Mode, row.Payload, arm)))
	o, err := newOracle(app, sh, row.Mode, rng, st)
	if err != nil {
		return Disclosure{}, 0, err
	}
	defer o.victim.Release()
	d := Disclosure{Outcome: OutcomeNoChain}
	maxOps := cfg.maxLeaksFor(o.universe())
	failed := make(map[string]bool)
	var ran uint64
	for op := 1; op <= maxOps; op++ {
		if err := ctx.Err(); err != nil {
			return d, ran, err
		}
		if rerand && op > 1 && (op-1)%cfg.RerandEvery == 0 {
			d.Epochs++
			next, err := o.res.Rerandomize(epochSeed(cfg.Seed, row.Workload, row.Mode, row.Payload, d.Epochs))
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
		ch, err := buildChain(o.pool(), row.Payload)
		if err != nil || failed[chainKey(ch)] {
			continue
		}
		st.ChainsBuilt++
		d.ChainsBuilt++
		outcome := fire(ctx, app, row.Mode, o.res, ch, row.Payload, cfg.MaxInsts)
		if outcome == "" {
			return d, ran, harness.NotExecuted(ctx, notRun)
		}
		st.AddFire(outcome)
		d.ChainsFired++
		d.Outcome = outcome
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

// ModeSummary is one mode's aggregate over the campaign's cells — the
// numbers the paper-style claim ranks.
type ModeSummary struct {
	Mode            cpu.Mode
	Cells           int
	StaticSuccesses int     // full-knowledge chains that worked
	Successes       int     // plain-arm disclosure successes (any budget)
	WithinBudget    int     // plain-arm successes within LeakBudget
	SuccessRate     float64 // WithinBudget / Cells
	MeanLeaks       float64 // mean leaks over plain-arm successes
	RerandSuccesses int     // rerand-arm successes (any budget)
	MeanRerandLeaks float64 // mean leaks over rerand-arm successes
}

// Summaries aggregates per mode, in the config's mode order. Cells carrying
// errors are excluded.
func (rep *Report) Summaries() []ModeSummary {
	out := make([]ModeSummary, 0, len(rep.Config.Modes))
	for _, m := range rep.Config.Modes {
		s := ModeSummary{Mode: m}
		var leakSum, rleakSum int
		for _, r := range rep.Rows {
			if r.Mode != m || r.Error != "" {
				continue
			}
			s.Cells++
			if r.Static.Outcome == OutcomeSuccess {
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

// Envelope renders the report as the versioned wire document every surface
// emits (results schema v4, kind "attack").
func (rep *Report) Envelope() results.Envelope {
	modes := make([]string, len(rep.Config.Modes))
	for i, m := range rep.Config.Modes {
		modes[i] = m.String()
	}
	payloads := make([]string, len(rep.Config.Payloads))
	for i, p := range rep.Config.Payloads {
		payloads[i] = string(p)
	}
	a := results.Attack{
		Seed:         rep.Config.Seed,
		Scale:        rep.Config.Scale,
		Spread:       rep.Config.Spread,
		MaxInsts:     rep.Config.MaxInsts,
		LeakBudget:   rep.Config.LeakBudget,
		MaxLeaks:     rep.Config.MaxLeaks,
		RerandEvery:  rep.Config.RerandEvery,
		AdvanceInsts: rep.Config.AdvanceInsts,
		Workloads:    rep.Config.Workloads,
		Modes:        modes,
		Payloads:     payloads,
		Rows:         make([]results.AttackRow, 0, len(rep.Rows)),
	}
	for _, r := range rep.Rows {
		ar := results.AttackRow{
			Workload: r.Workload,
			Mode:     r.Mode.String(),
			Payload:  string(r.Payload),
			Static: results.AttackStatic{
				PoolSize: r.Static.PoolSize,
				Built:    r.Static.Built,
				ChainLen: r.Static.ChainLen,
				Outcome:  string(r.Static.Outcome),
			},
			Plain: disclosureDoc(r.Plain),
			Error: r.Error,
		}
		if r.Rerand != nil {
			d := disclosureDoc(*r.Rerand)
			ar.Rerand = &d
		}
		a.Rows = append(a.Rows, ar)
	}
	for _, s := range rep.Summaries() {
		a.Summaries = append(a.Summaries, results.AttackModeSummary{
			Mode:            s.Mode.String(),
			Cells:           s.Cells,
			StaticSuccesses: s.StaticSuccesses,
			Successes:       s.Successes,
			WithinBudget:    s.WithinBudget,
			SuccessRate:     s.SuccessRate,
			MeanLeaks:       s.MeanLeaks,
			RerandSuccesses: s.RerandSuccesses,
			MeanRerandLeaks: s.MeanRerandLeaks,
		})
	}
	a.Totals = results.AttackCounts{
		ChainsBuilt:      rep.Totals.ChainsBuilt,
		ChainsFired:      rep.Totals.ChainsFired,
		Successes:        rep.Totals.Successes,
		BlockedRPC:       rep.Totals.BlockedRPC,
		BlockedIllegal:   rep.Totals.BlockedIllegal,
		Crashes:          rep.Totals.Crashes,
		NoEffect:         rep.Totals.NoEffect,
		Leaks:            rep.Totals.Leaks,
		CodePages:        rep.Totals.CodePages,
		MapPages:         rep.Totals.MapPages,
		Rerandomizations: rep.Totals.Rerandomizations,
	}
	return results.NewAttack(a)
}

func disclosureDoc(d Disclosure) results.AttackDisclosure {
	return results.AttackDisclosure{
		Success:      d.Success,
		WithinBudget: d.WithinBudget,
		Leaks:        d.Leaks,
		CodePages:    d.CodePages,
		MapPages:     d.MapPages,
		ChainsBuilt:  d.ChainsBuilt,
		ChainsFired:  d.ChainsFired,
		Blocked:      d.Blocked,
		Epochs:       d.Epochs,
		Outcome:      string(d.Outcome),
	}
}

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
			rep.Config.Seed, rep.Config.LeakBudget, rep.Config.RerandEvery, rep.Config.AdvanceInsts),
	}
	for _, r := range rep.Rows {
		if r.Error != "" {
			t.Rows = append(t.Rows, []string{r.Workload, r.Mode.String(), string(r.Payload),
				"error: " + r.Error})
			continue
		}
		static := string(r.Static.Outcome)
		if !r.Static.Built {
			static = string(OutcomeNoChain)
		}
		rrLeaks, rrOutcome := "-", "-"
		if r.Rerand != nil {
			rrLeaks = fmt.Sprintf("%d", r.Rerand.Leaks)
			rrOutcome = string(r.Rerand.Outcome)
		}
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Mode.String(), string(r.Payload),
			static,
			fmt.Sprintf("%d", r.Static.PoolSize),
			fmt.Sprintf("%d", r.Plain.Leaks),
			fmt.Sprintf("%d+%d", r.Plain.CodePages, r.Plain.MapPages),
			fmt.Sprintf("%d", r.Plain.ChainsFired),
			string(r.Plain.Outcome),
			rrLeaks, rrOutcome,
		})
	}
	for _, s := range rep.Summaries() {
		t.Rows = append(t.Rows, []string{
			"(all)", s.Mode.String(), "(summary)",
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
