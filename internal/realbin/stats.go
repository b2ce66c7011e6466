package realbin

import (
	"sync/atomic"

	"vcfr/internal/stats"
)

// Totals are the process-wide realbin counters on the stats spine. The
// package accumulates them atomically (lifts can run concurrently under the
// harness worker pool); consumers hold their own Totals mirror, refresh it
// from TotalsSnapshot at render time, and register the mirror's fields —
// the same pattern the server uses for app-memo and campaign counters.
type Totals struct {
	BinariesLifted      uint64 // successful lifts
	InstructionsLifted  uint64 // RV instructions translated
	BlocksRecovered     uint64 // basic blocks cfg recovered over lifted text
	LandingPads         uint64 // ground-truth landing pads found
	UnresolvedIndirects uint64 // scan-only code pointers (failover path)
	RefusedBinaries     uint64 // lifts refused end to end
	RefusedFunctions    uint64 // distinct functions named in refusals
}

// Register registers the totals under realbin.* names.
func (t *Totals) Register(r *stats.Registry) {
	sc := r.Scope("realbin")
	sc.Counter("binaries_lifted", "ELF binaries lifted to VX images.", &t.BinariesLifted)
	sc.Counter("instructions_lifted", "RV64 instructions lifted.", &t.InstructionsLifted)
	sc.Counter("blocks_recovered", "Basic blocks recovered over lifted text.", &t.BlocksRecovered)
	sc.Counter("landing_pads", "Ground-truth landing pads (auipc x0) found.", &t.LandingPads)
	sc.Counter("unresolved_indirects", "Code pointers rewritten without grounding (scan-only failover).", &t.UnresolvedIndirects)
	sc.Counter("refused_binaries", "Binaries refused by the lifter.", &t.RefusedBinaries)
	sc.Counter("refused_functions", "Distinct functions named in lift refusals.", &t.RefusedFunctions)
}

// liveTotals is the package-wide accumulator.
type liveTotals struct {
	binaries, instructions, blocks, pads, scanOnly, refusedBins, refusedFuncs atomic.Uint64
}

var totals liveTotals

func (t *liveTotals) noteLift(r Report) {
	t.binaries.Add(1)
	t.instructions.Add(uint64(r.Instructions))
	t.blocks.Add(uint64(r.Blocks))
	t.pads.Add(uint64(r.LandingPads))
	t.scanOnly.Add(uint64(r.ScanOnlyPtrs))
}

func (t *liveTotals) noteRefusal(funcs int) {
	t.refusedBins.Add(1)
	t.refusedFuncs.Add(uint64(funcs))
}

// TotalsSnapshot reads the process-wide counters at one instant.
func TotalsSnapshot() Totals {
	return Totals{
		BinariesLifted:      totals.binaries.Load(),
		InstructionsLifted:  totals.instructions.Load(),
		BlocksRecovered:     totals.blocks.Load(),
		LandingPads:         totals.pads.Load(),
		UnresolvedIndirects: totals.scanOnly.Load(),
		RefusedBinaries:     totals.refusedBins.Load(),
		RefusedFunctions:    totals.refusedFuncs.Load(),
	}
}
