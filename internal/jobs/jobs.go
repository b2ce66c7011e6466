// Package jobs owns the job-kind axis: the five computations vcfrd serves
// and `experiments` runs (one run, a stats sweep, and the fault, attack and
// multicore campaigns), the request both surfaces fill, each kind's
// defaults and validation, and the one dispatch from a kind to the entry
// point that computes it. Because the service and the CLI both go through
// Normalize and Run, their envelopes are byte-identical by construction.
package jobs

import (
	"context"
	"fmt"
	"strings"

	"vcfr/internal/attack"
	"vcfr/internal/cpu"
	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/multicore"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// Kind selects what a job computes.
type Kind string

// Job kinds; the table below holds what each one does.
const (
	// KindRun is one workload under one or more modes with a fixed layout
	// seed: the service twin of `vcfrsim -stats-json`.
	KindRun Kind = "run"
	// KindSweep is a full stats sweep with per-cell derived seeds: the
	// service twin of `experiments -stats-json`.
	KindSweep Kind = "sweep"
	// KindFaults is a fault-injection campaign (`experiments -mode faults`).
	KindFaults Kind = "faults"
	// KindAttacks is an adversary-in-the-loop attack campaign
	// (`experiments -mode attacks`).
	KindAttacks Kind = "attacks"
	// KindMulticore is a multi-tenant interference campaign
	// (`experiments -mode multicore`).
	KindMulticore Kind = "multicore"
)

// entry is one row of the job-kind table.
type entry struct {
	name Kind
	// campaign kinds compare architectures, so their mode defaults to all
	// three instead of vcfr.
	campaign bool
	// seed is the default randomization seed.
	seed int64
	// ownModes is set for the one kind that simulates the request's machine
	// knobs under the request's modes; every other kind has its knobs
	// checked against all three modes.
	ownModes bool
	// validate holds the kind's own request checks; nil means none.
	validate func(*Request) error
	run      func(context.Context, *harness.Runner, *Request, func(harness.Progress)) (Outcome, error)
}

// table is the one place the job kinds are listed.
var table = []entry{
	{name: KindRun, seed: 1, ownModes: true, validate: validateRun, run: runOne},
	{name: KindSweep, seed: harness.DefaultSeed, run: runSweep},
	{name: KindFaults, campaign: true, seed: harness.DefaultSeed, validate: validateFaults, run: runFaults},
	{name: KindAttacks, campaign: true, seed: harness.DefaultSeed, validate: validateAttacks, run: runAttacks},
	{name: KindMulticore, campaign: true, seed: harness.DefaultSeed, validate: validateMulticore, run: runMulticore},
}

// ParseKind maps a request or CLI kind name onto its Kind.
func ParseKind(s string) (Kind, error) {
	if s == "" {
		return "", fmt.Errorf(`job needs a "kind" (%s)`, names())
	}
	e, err := lookup(Kind(s))
	if err != nil {
		return "", err
	}
	return e.name, nil
}

// Campaign reports whether k is one of the cross-mode campaigns.
func (k Kind) Campaign() bool {
	e, err := lookup(k)
	return err == nil && e.campaign
}

func lookup(k Kind) (*entry, error) {
	for i := range table {
		if table[i].name == k {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("unknown job kind %q (want %s)", k, names())
}

// names lists the table's kinds as "a, b, or c".
func names() string {
	var b strings.Builder
	for i, e := range table {
		switch {
		case i == len(table)-1:
			b.WriteString(", or ")
		case i > 0:
			b.WriteString(", ")
		}
		b.WriteString(string(e.name))
	}
	return b.String()
}

// Outcome is one finished job.
type Outcome struct {
	Envelope results.Envelope
	// Report is the campaign's report (*fault.Report, *attack.Report or
	// *multicore.Report), whose document Envelope wraps; nil for run and
	// sweep. Everything a consumer reads is in Envelope; the report adds
	// the text table.
	Report Report
	// Incomplete is non-nil when the envelope is partial: some cells or
	// injections failed or were cancelled. Its text is the CLI's exit
	// message; the service still serves the partial envelope.
	Incomplete error
}

// Report is a finished campaign.
type Report interface {
	Envelope() results.Envelope
	// Table is the human-readable table `experiments -mode <kind>` prints.
	Table() *harness.Table
}

// Run executes one normalized request of kind k on r. progress, if
// non-nil, receives live completion updates from sweeps and campaigns.
func Run(ctx context.Context, r *harness.Runner, k Kind, req Request, progress func(harness.Progress)) (Outcome, error) {
	e, err := lookup(k)
	if err != nil {
		return Outcome{}, err
	}
	return e.run(ctx, r, &req, progress)
}

func runOne(ctx context.Context, r *harness.Runner, req *Request, _ func(harness.Progress)) (Outcome, error) {
	modes, err := cpu.ParseModes(req.Mode)
	if err != nil {
		return Outcome{}, err
	}
	rows, err := harness.SimulateRuns(ctx, r, req.Workload, modes, req.Config(), req.Mutate())
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Envelope: results.NewRun(rows...)}, nil
}

func runSweep(ctx context.Context, r *harness.Runner, req *Request, progress func(harness.Progress)) (Outcome, error) {
	rows, err := harness.StatsSweepProgress(ctx, r, req.Config(), progress)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Envelope: results.NewSweep(rows)}
	if out.Envelope.Sweep.Partial {
		out.Incomplete = fmt.Errorf("stats sweep incomplete: some cells failed or were cancelled")
	}
	return out, nil
}

func runFaults(ctx context.Context, r *harness.Runner, req *Request, progress func(harness.Progress)) (Outcome, error) {
	rep, err := fault.RunCampaign(ctx, r, req.faultConfig(), progress)
	if err != nil {
		return Outcome{}, err
	}
	return campaignOutcome(rep, rep.Partial, "injections"), nil
}

func runAttacks(ctx context.Context, r *harness.Runner, req *Request, progress func(harness.Progress)) (Outcome, error) {
	rep, err := attack.RunCampaign(ctx, r, req.attackConfig(), progress)
	if err != nil {
		return Outcome{}, err
	}
	return campaignOutcome(rep, rep.Partial, "cells"), nil
}

func runMulticore(ctx context.Context, r *harness.Runner, req *Request, progress func(harness.Progress)) (Outcome, error) {
	rep, err := multicore.RunCampaign(ctx, r, req.multicoreConfig(), progress)
	if err != nil {
		return Outcome{}, err
	}
	return campaignOutcome(rep, rep.Partial, "cells"), nil
}

// campaignOutcome wraps a finished campaign; units names what a partial
// campaign left unexecuted.
func campaignOutcome(rep Report, partial bool, units string) Outcome {
	out := Outcome{Envelope: rep.Envelope(), Report: rep}
	if partial {
		out.Incomplete = fmt.Errorf("campaign incomplete: some %s were not executed", units)
	}
	return out
}

func validateRun(r *Request) error {
	if r.Workload == "" {
		return fmt.Errorf("a run needs a workload")
	}
	return workloads.CheckName(r.Workload)
}

// Size bounds on what a request makes a campaign allocate while planning,
// before any deadline can act. Each is far above the largest use in the
// repository (500 injections, 2 cells, 2c4t).
const (
	maxInjections = 10_000 // per (workload, mode) cell of a fault campaign
	maxCells      = 16     // multicore grid points
	maxCellSize   = 64     // cores, and tenants, per multicore cell
)

// checkUnique refuses a list that names an entry twice: a repeated name
// would repeat its share of every plan built from the list.
func checkUnique[T comparable](field string, items []T) error {
	seen := make(map[T]bool, len(items))
	for _, v := range items {
		if seen[v] {
			return fmt.Errorf("%s lists %q twice", field, fmt.Sprint(v))
		}
		seen[v] = true
	}
	return nil
}

func validateFaults(r *Request) error {
	kinds, err := fault.ParseKinds(r.Faults)
	if err != nil {
		return err
	}
	if err := checkUnique("faults", kinds); err != nil {
		return err
	}
	if r.Injections < 0 || r.Injections > maxInjections {
		return fmt.Errorf("injections must be in [0, %d]", maxInjections)
	}
	if r.Bits < 0 {
		return fmt.Errorf("bits must be >= 0")
	}
	return nil
}

func validateAttacks(r *Request) error {
	payloads, err := attack.ParsePayloads(r.Payloads)
	if err != nil {
		return err
	}
	if err := checkUnique("payloads", payloads); err != nil {
		return err
	}
	if r.LeakBudget < 0 {
		return fmt.Errorf("leak_budget must be >= 0")
	}
	if r.MaxLeaks < 0 {
		return fmt.Errorf("max_leaks must be >= 0")
	}
	if r.RerandEvery < 0 {
		return fmt.Errorf("rerand_every must be >= 0")
	}
	return nil
}

func validateMulticore(r *Request) error {
	if len(r.Cells) == 0 {
		return nil
	}
	cells, err := multicore.ParseCells(strings.Join(r.Cells, ","))
	if err != nil {
		return err
	}
	if len(cells) > maxCells {
		return fmt.Errorf("cells lists %d cells, at most %d", len(cells), maxCells)
	}
	for _, c := range cells {
		if c.Cores > maxCellSize || c.Tenants > maxCellSize {
			return fmt.Errorf("cell %s exceeds %d cores or tenants", c, maxCellSize)
		}
	}
	return checkUnique("cells", cells)
}
