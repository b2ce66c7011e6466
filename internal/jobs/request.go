package jobs

import (
	"fmt"
	"strings"

	"vcfr/internal/attack"
	"vcfr/internal/cpu"
	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/multicore"
	"vcfr/internal/workloads"
)

// Request is the parameters of a POST /v1/jobs body (beside its kind), and
// what `experiments` and `vcfrsim` build from their flags.
// Absent fields take the kind's defaults (documented per field), which is
// what keeps service responses byte-identical to CLI output. The numeric tuning knobs
// are pointers so that presence, not value, selects the default:
// `"seed": 0` means literally seed 0 (handled downstream exactly as the
// CLIs handle `-seed 0`), while omitting seed means the default.
type Request struct {
	// Workload names the built-in workload to simulate (required for a
	// run; ignored by sweep).
	Workload string `json:"workload,omitempty"`
	// Workloads restricts a sweep to a subset (default: all 11 SPEC
	// analogs). Ignored by a run.
	Workloads []string `json:"workloads,omitempty"`
	// Mode is baseline | naive | vcfr | all. Default "vcfr", or "all" for a
	// campaign. Ignored by sweep, which always
	// runs all three modes.
	Mode string `json:"mode,omitempty"`
	// Seed is the randomization seed. Default 1 for a run and 42 for every
	// other kind (the job-kind table's seed column).
	Seed *int64 `json:"seed,omitempty"`
	// Spread is the ILR scatter factor. Default 8.
	Spread *int `json:"spread,omitempty"`
	// Scale multiplies workload iteration counts. Default 1.
	Scale *int `json:"scale,omitempty"`
	// Instructions caps simulated instructions per run. 0 = to completion.
	Instructions uint64 `json:"instructions,omitempty"`
	// DRC is the De-Randomization Cache entry count. Default 128.
	DRC *int `json:"drc,omitempty"`
	// Width is the issue width. Default 1 (the paper's core).
	Width *int `json:"width,omitempty"`
	// CtxSwitchEvery flushes process-private state every N instructions.
	// Default 0 (never).
	CtxSwitchEvery uint64 `json:"ctxswitch,omitempty"`
	// Interval samples the statistics spine every N simulated instructions,
	// adding the per-window `intervals` series to every result row (the
	// service twin of vcfrsim -interval). Default 0 (off).
	Interval uint64 `json:"interval,omitempty"`
	// Injections per (workload, mode) cell of a fault campaign. Default
	// 120. Ignored by run and sweep.
	Injections int `json:"injections,omitempty"`
	// Faults restricts a campaign to a subset of the fault model (kind
	// names as in internal/fault). Default: the full model. Ignored by
	// run and sweep.
	Faults []string `json:"faults,omitempty"`
	// Bits flipped per injection. Default 1. Ignored by run and sweep.
	Bits int `json:"bits,omitempty"`
	// Payloads restricts an attack campaign to a subset of the payload
	// templates (names as in internal/attack). Default: all three. Only
	// attacks jobs read it.
	Payloads []string `json:"payloads,omitempty"`
	// LeakBudget is the attack campaign's canonical disclosure allowance.
	// Default 16. Only attacks jobs read it.
	LeakBudget int `json:"leak_budget,omitempty"`
	// MaxLeaks caps each attack arm's leak ops. Default 0 (derive from the
	// cell's universe). Only attacks jobs read it.
	MaxLeaks int `json:"max_leaks,omitempty"`
	// RerandEvery is the re-randomization period in leak ops. Default 5.
	// Only attacks jobs read it.
	RerandEvery int `json:"rerand_every,omitempty"`
	// AdvanceInsts is how many instructions the victim executes between leak
	// ops. Default 2000. Only attacks jobs read it.
	AdvanceInsts uint64 `json:"advance_insts,omitempty"`
	// Cells restricts a multicore campaign to a cores×tenants grid subset
	// ("2c4t" form, as experiments -cells). Default: the canonical grid.
	// Only multicore jobs read it.
	Cells []string `json:"cells,omitempty"`
	// Quantum is the multicore scheduler's time slice in committed
	// instructions. Default 10000. Only multicore jobs read it.
	Quantum uint64 `json:"quantum,omitempty"`
	// TimeoutMS bounds the job's execution wall clock, refining the
	// server's default job timeout. 0 = server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Normalize applies kind k's defaults to absent fields and validates the
// request. After it returns nil, every pointer field is non-nil.
func (r *Request) Normalize(k Kind) error {
	e, err := lookup(k)
	if err != nil {
		return err
	}
	return r.normalize(e, e.validate)
}

// NormalizeProgram is Normalize(KindRun) for a run of a program the request
// cannot name (a program file, an ELF binary or VX source, as vcfrsim runs
// it): the run kind's defaults and machine checks, without its built-in
// workload check.
func (r *Request) NormalizeProgram() error {
	e, err := lookup(KindRun)
	if err != nil {
		return err
	}
	return r.normalize(e, nil)
}

// normalize is Normalize for table entry e, with validate as the kind's own
// check.
func (r *Request) normalize(e *entry, validate func(*Request) error) error {
	if r.Mode == "" {
		r.Mode = "vcfr"
		if e.campaign {
			// A campaign's point is the cross-mode comparison; default to all
			// three architectures.
			r.Mode = "all"
		}
	}
	modes, err := cpu.ParseModes(r.Mode)
	if err != nil {
		return err
	}
	if validate != nil {
		if err := validate(r); err != nil {
			return err
		}
	}
	// Explicit 0 means "default" downstream. A negative value would run as
	// the default too, without saying so, so it is refused.
	if r.Spread != nil && *r.Spread < 0 {
		return fmt.Errorf("spread must be >= 0")
	}
	if r.Scale != nil && *r.Scale < 0 {
		return fmt.Errorf("scale must be >= 0")
	}
	if r.Seed == nil {
		seed := e.seed
		r.Seed = &seed
	}
	if r.Spread == nil {
		spread := harness.DefaultSpread
		r.Spread = &spread
	}
	if r.Scale == nil {
		scale := harness.DefaultScale
		r.Scale = &scale
	}
	if r.DRC == nil {
		drc := 128
		r.DRC = &drc
	}
	if r.Width == nil {
		width := 1
		r.Width = &width
	}
	for _, w := range r.Workloads {
		if err := workloads.CheckName(w); err != nil {
			return err
		}
	}
	if err := checkUnique("workloads", r.Workloads); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	// Machine-config bounds live in exactly one place — cpu.Config.Validate —
	// and vcfrsim's flags reach it through this same Normalize, so a bad drc
	// or width fails with one message on both surfaces. Only a
	// run simulates the request's modes; the other kinds are checked against
	// all three architectures (a sweep ignores Mode and runs all three).
	if !e.ownModes {
		modes = cpu.AllModes()
	}
	mutate := r.Mutate()
	for _, m := range modes {
		c := cpu.DefaultConfig(m)
		mutate(&c)
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Mutate returns the machine-config mutation the request describes. Call
// only after Normalize has filled the pointer fields.
func (r *Request) Mutate() func(*cpu.Config) {
	drc, width, ctxEvery, interval := *r.DRC, *r.Width, r.CtxSwitchEvery, r.Interval
	return func(c *cpu.Config) {
		c.DRCEntries = drc
		c.IssueWidth = width
		c.ContextSwitchEvery = ctxEvery
		c.SampleEvery = interval
	}
}

// Config maps the request onto a harness.Config. Call only after Normalize
// has filled the pointer fields.
func (r *Request) Config() harness.Config {
	return harness.Config{
		Workloads: r.Workloads,
		Scale:     *r.Scale,
		MaxInsts:  r.Instructions,
		Seed:      *r.Seed,
		Spread:    *r.Spread,
	}
}

// faultConfig maps the request onto a fault campaign config. Call only
// after Normalize has filled the pointer fields. The campaign runs the
// default machine configuration per mode, so the machine tuning knobs
// (drc, width, ctxswitch, interval) do not apply here.
func (r *Request) faultConfig() fault.Config {
	modes, _ := cpu.ParseModes(r.Mode)
	kinds, _ := fault.ParseKinds(r.Faults)
	return fault.Config{
		Workloads:  r.Workloads,
		Modes:      modes,
		Kinds:      kinds,
		Injections: r.Injections,
		Seed:       *r.Seed,
		Scale:      *r.Scale,
		Spread:     *r.Spread,
		MaxInsts:   r.Instructions,
		Bits:       r.Bits,
	}
}

// attackConfig maps the request onto an attack campaign config. Call only
// after Normalize has filled the pointer fields. Like faultConfig, the
// campaign runs the default machine configuration per mode, so the machine
// tuning knobs do not apply here.
func (r *Request) attackConfig() attack.Config {
	modes, _ := cpu.ParseModes(r.Mode)
	payloads, _ := attack.ParsePayloads(r.Payloads)
	return attack.Config{
		Workloads:    r.Workloads,
		Modes:        modes,
		Payloads:     payloads,
		Seed:         *r.Seed,
		Scale:        *r.Scale,
		Spread:       *r.Spread,
		MaxInsts:     r.Instructions,
		LeakBudget:   r.LeakBudget,
		MaxLeaks:     r.MaxLeaks,
		RerandEvery:  r.RerandEvery,
		AdvanceInsts: r.AdvanceInsts,
	}
}

// multicoreConfig maps the request onto a multicore campaign config. Call
// only after Normalize has filled the pointer fields. Like faultConfig, the
// campaign runs the default machine configuration per mode, so the machine
// tuning knobs do not apply here.
func (r *Request) multicoreConfig() multicore.Config {
	modes, _ := cpu.ParseModes(r.Mode)
	var cells []multicore.Cell
	if len(r.Cells) > 0 {
		cells, _ = multicore.ParseCells(strings.Join(r.Cells, ","))
	}
	return multicore.Config{
		Workloads: r.Workloads,
		Modes:     modes,
		Cells:     cells,
		Quantum:   r.Quantum,
		Seed:      *r.Seed,
		Scale:     *r.Scale,
		Spread:    *r.Spread,
		MaxInsts:  r.Instructions,
	}
}
