// Package core is the top-level API of the VCFR library: one type, System,
// that bundles a program with its randomization artifacts and exposes the
// paper's three execution substrates (reference interpreter, software-ILR
// emulator, cycle-level pipeline) plus the security analyses.
//
// Typical use:
//
//	img, _ := asm.Assemble("app", source)           // or any program.Image
//	sys, _ := core.NewSystem(img, core.Options{Seed: 1})
//	out, _ := sys.Run(core.ExecVCFR)                // functional execution
//	res, _ := sys.Simulate(cpu.ModeVCFR, nil, 0)    // cycle-level simulation
//	rep := sys.GadgetReport()                       // attack-surface report
//
// Everything in the package is a thin, stable veneer over the focused
// subsystem packages (ilr, emu, cpu, gadget); programs that need more
// control use those directly.
package core

import (
	"fmt"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/gadget"
	"vcfr/internal/ilr"
	"vcfr/internal/program"
)

// Options configures randomization. The zero value means: a seed of 1,
// spread 8, architectural return-address randomization — the defaults the
// evaluation uses.
type Options struct {
	// Seed drives every placement decision; equal seeds reproduce layouts.
	Seed int64
	// Spread multiplies the randomized address range beyond the instruction
	// count (entropy / scatter density). Default 8.
	Spread int
	// PageConfined keeps randomized addresses within their original 4 KiB
	// page (Sec. IV-D).
	PageConfined bool
	// SoftwareRetRand uses the software (rewrite-based) return-address
	// option instead of the architectural one.
	SoftwareRetRand bool
}

func (o Options) toILR() ilr.Options {
	opts := ilr.Options{
		Seed:         o.Seed,
		Spread:       o.Spread,
		PageConfined: o.PageConfined,
		RetRand:      ilr.RetRandArch,
	}
	if o.Seed == 0 {
		opts.Seed = 1
	}
	if o.Spread == 0 {
		opts.Spread = 8
	}
	if o.SoftwareRetRand {
		opts.RetRand = ilr.RetRandSoftware
	}
	return opts
}

// ExecMode selects a functional execution substrate for Run.
type ExecMode int

// Functional execution modes.
const (
	// ExecNative runs the original binary.
	ExecNative ExecMode = iota + 1
	// ExecVCFR runs the randomized binary the way the proposed hardware
	// does: original layout, randomized control flow, prohibition checks.
	ExecVCFR
	// ExecEmulated runs the scattered binary under the software-ILR
	// emulation cost model (Fig. 2's baseline).
	ExecEmulated
)

// System is a program plus its randomization artifacts.
type System struct {
	rewrite *ilr.Result
	opts    Options
}

// NewSystem randomizes img. The input image is not modified.
func NewSystem(img *program.Image, opts Options) (*System, error) {
	res, err := ilr.Rewrite(img, opts.toILR())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &System{rewrite: res, opts: opts}, nil
}

// FromRewrite wraps an existing randomization result (e.g. one reloaded from
// an ilr bundle) as a System.
func FromRewrite(res *ilr.Result) *System {
	return &System{rewrite: res, opts: Options{
		Seed:            res.Opts.Seed,
		Spread:          res.Opts.Spread,
		PageConfined:    res.Opts.PageConfined,
		SoftwareRetRand: res.Opts.RetRand == ilr.RetRandSoftware,
	}}
}

// NewSystemFromSource assembles VX source and randomizes the result.
func NewSystemFromSource(name, source string, opts Options) (*System, error) {
	img, err := asm.Assemble(name, source)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewSystem(img, opts)
}

// Original returns the un-randomized image.
func (s *System) Original() *program.Image { return s.rewrite.Orig }

// Randomized returns the VCFR image: original layout, randomized control
// flow.
func (s *System) Randomized() *program.Image { return s.rewrite.VCFR }

// Scattered returns the physically scattered image (what a software ILR VM
// interprets and a naive hardware ILR fetches from).
func (s *System) Scattered() *program.Image { return s.rewrite.Scattered }

// Rewrite exposes the full randomization result for advanced use.
func (s *System) Rewrite() *ilr.Result { return s.rewrite }

// Stats returns the rewrite statistics (instructions randomized, relocations
// patched, entropy, table size).
func (s *System) Stats() ilr.Stats { return s.rewrite.Stats }

// Run executes the program functionally in the given mode with input served
// to SysGetChar.
func (s *System) Run(mode ExecMode, input ...byte) (emu.RunResult, error) {
	cfg := emu.Config{Input: input}
	var img *program.Image
	switch mode {
	case ExecNative:
		cfg.Mode = emu.ModeNative
		img = s.rewrite.Orig
	case ExecVCFR:
		cfg.Mode = emu.ModeVCFR
		cfg.Trans = s.rewrite.Tables
		cfg.RandRA = s.rewrite.RandRA
		img = s.rewrite.VCFR
	case ExecEmulated:
		cfg.Mode = emu.ModeEmulatedILR
		cfg.Trans = s.rewrite.Tables
		img = s.rewrite.Scattered
	default:
		return emu.RunResult{}, fmt.Errorf("core: unknown exec mode %d", mode)
	}
	return emu.Run(img, cfg)
}

// Pipeline constructs (without running) a cycle-level pipeline for the
// given architecture mode — the entry point for callers that need stepping,
// tracing, or input injection. mutate, if non-nil, adjusts the default
// machine configuration.
func (s *System) Pipeline(mode cpu.Mode, mutate func(*cpu.Config)) (*cpu.Pipeline, error) {
	cfg := cpu.DefaultConfig(mode)
	if mutate != nil {
		mutate(&cfg)
	}
	img, trans, randRA := mode.Deploy(s.rewrite)
	return cpu.New(img, cfg, trans, randRA)
}

// Simulate runs the cycle-level pipeline in the given architecture mode.
// mutate, if non-nil, adjusts the default machine configuration (DRC size,
// ablation switches); maxInsts of 0 runs to completion.
func (s *System) Simulate(mode cpu.Mode, mutate func(*cpu.Config), maxInsts uint64) (cpu.Result, error) {
	p, err := s.Pipeline(mode, mutate)
	if err != nil {
		return cpu.Result{}, err
	}
	defer p.Release()
	return p.Run(maxInsts)
}

// GadgetReport summarizes the attack surface before and after randomization.
type GadgetReport struct {
	Total       int     // gadgets in the original binary
	Surviving   int     // gadgets still reachable after randomization
	RemovalRate float64 // fraction removed (the paper's Fig. 11 metric)
	// PayloadsBefore and PayloadsAfter report which ROP payload templates
	// could be assembled from each pool.
	PayloadsBefore map[string]bool
	PayloadsAfter  map[string]bool
}

// GadgetReport runs the Sec. V security analysis.
func (s *System) GadgetReport() GadgetReport {
	pool := gadget.Scan(s.rewrite.Orig, gadget.DefaultMaxInsts)
	surv := gadget.Survivors(pool, s.rewrite.Tables)
	return GadgetReport{
		Total:          len(pool),
		Surviving:      len(surv),
		RemovalRate:    gadget.RemovalRate(pool, surv),
		PayloadsBefore: gadget.TryAllTemplates(pool),
		PayloadsAfter:  gadget.TryAllTemplates(surv),
	}
}

// Rerandomize produces a fresh System over the same original image with a
// new seed — the paper's periodic re-randomization defense.
func (s *System) Rerandomize(seed int64) (*System, error) {
	opts := s.opts
	opts.Seed = seed
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return NewSystem(s.rewrite.Orig, opts)
}
