// Package cpu implements the cycle-level in-order x86-style pipeline model of
// the paper's evaluation (Sec. VI): a single-issue five-block pipeline
// (fetch, decode, alloc, exec, commit) with a decoupled front end, a 2-level
// gshare branch predictor, a BTB, a return-address stack, split L1 caches
// over a unified L2 and DDR DRAM — extended with the paper's proposal:
//
//   - two architectural program counters, RPC (randomized space) and UPC
//     (original space), with all prediction performed in the original space;
//   - a small direct-mapped De-Randomization Cache (DRC) holding
//     randomization and de-randomization entries, backed by table pages that
//     are read through the L2 on a miss;
//   - architectural return-address randomization with a stack bitmap that
//     auto-de-randomizes explicit loads of return-address slots.
//
// The pipeline executes functionally through emu.Exec (the same semantics as
// the reference interpreter) and accounts cycles around it, so the timing
// model can never diverge semantically from the golden model.
package cpu

import (
	"fmt"

	"vcfr/internal/mem"
)

// Mode selects the fetch-path architecture being simulated.
type Mode int

// Simulated architectures.
const (
	// ModeBaseline runs the original binary with no randomization.
	ModeBaseline Mode = iota + 1
	// ModeNaiveILR runs the scattered binary with direct hardware support
	// and the paper's zero-cost address-mapping assumption: control flow
	// resolves for free, but every instruction fetch touches its scattered
	// address, destroying fetch locality (Sec. III).
	ModeNaiveILR
	// ModeVCFR runs the VCFR binary: original storage layout, randomized
	// control flow, DRC-mediated translation at the fetch boundary.
	ModeVCFR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeNaiveILR:
		return "naive-ilr"
	case ModeVCFR:
		return "vcfr"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// AllModes returns the three architecture modes in report order.
func AllModes() []Mode { return []Mode{ModeBaseline, ModeNaiveILR, ModeVCFR} }

// ParseModes maps a CLI flag or request mode string onto a mode list: one
// of baseline, naive or vcfr, or all three for "all" and "".
func ParseModes(s string) ([]Mode, error) {
	switch s {
	case "", "all":
		return AllModes(), nil
	case "baseline":
		return []Mode{ModeBaseline}, nil
	case "naive":
		return []Mode{ModeNaiveILR}, nil
	case "vcfr":
		return []Mode{ModeVCFR}, nil
	}
	return nil, fmt.Errorf("unknown mode %q (want baseline, naive, vcfr, or all)", s)
}

// Config parameterizes the machine. DefaultConfig matches Sec. VI-C.
type Config struct {
	Mode Mode

	Mem mem.HierarchyConfig

	// Branch prediction.
	GshareBits int // global-history length and table index width
	BTBEntries int
	BTBAssoc   int
	RASDepth   int

	// DRC (VCFR only).
	DRCEntries int
	DRCAssoc   int  // 1 = direct-mapped (paper's design)
	DRCSplit   bool // two half-size buffers (rand/derand) instead of one unified
	// DRC2Entries enables the paper's rejected alternative (Sec. IV-B: "One
	// option is to include a larger level two DRC lookup buffer"): a
	// dedicated second-level buffer probed on a DRC miss before walking the
	// L2-resident tables. 0 disables it (the paper's design).
	DRC2Entries int
	DRC2Latency int    // probe latency of the level-2 buffer
	TableBase   uint32 // where the rand/derand table pages live

	// Instruction TLB: fully associative, LRU. Misses pay PageWalkLatency.
	ITLBEntries     int
	PageWalkLatency int

	// Pipeline latencies (cycles).
	MispredictPenalty int // full flush + refill on a wrong prediction
	TakenBubble       int // correctly predicted taken transfer
	DecodeRedirect    int // direct jump resolved at decode on a BTB miss
	MulLatency        int // extra cycles beyond 1
	DivLatency        int
	SyscallLatency    int

	// FetchAhead is how many cycles of line-fetch latency the decoupled
	// front end hides by running ahead of decode on the predicted stream.
	FetchAhead int

	// ContextSwitchEvery, when nonzero, flushes the process-private
	// translation state (DRC, iTLB) every N instructions, modelling context
	// switches: the rand/derand tables are part of the process context
	// (Sec. IV-B), so the DRC restarts cold on every switch-in.
	ContextSwitchEvery uint64

	// SampleEvery, when nonzero, snapshots the live counter registry every
	// N instructions during RunContext (plus once at run end), filling
	// Result.Intervals with cumulative readings. Consumers turn consecutive
	// snapshots into per-window IPC/miss-rate series (results.Interval).
	// 0 disables sampling; the hot loop then pays a single always-false
	// compare per instruction.
	SampleEvery uint64

	// NoBlockCache disables the basic-block cache of pre-decoded
	// instructions (bbcache.go) and forces the per-instruction decode path
	// everywhere. The cache is a pure memoization — results are bit-identical
	// either way — so this knob exists for the differential tests that prove
	// exactly that, and as an escape hatch. Excluded from the JSON shape:
	// it cannot change any result, so it is not part of a run's identity.
	NoBlockCache bool `json:"-"`

	// PredictOnRPC indexes the branch predictor with randomized addresses
	// instead of de-randomized ones — the ablation showing why VCFR keeps
	// prediction in the original space (Sec. IV-D).
	PredictOnRPC bool

	// IssueWidth widens the in-order core (the paper's future-work
	// direction: "extend the idea to the out-of-order superscalar
	// processor"). Width 1 is the paper's machine; width 2 pairs adjacent
	// independent simple-ALU instructions in the same cycle, a classic
	// dual-issue in-order core. The VCFR machinery is unchanged — the point
	// of the extension experiment is that DRC overheads stay small relative
	// to a faster baseline.
	IssueWidth int
}

// DefaultConfig returns the paper's simulated machine.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:              mode,
		Mem:               mem.DefaultHierarchyConfig(),
		GshareBits:        12,
		BTBEntries:        512,
		BTBAssoc:          4,
		RASDepth:          16,
		DRCEntries:        128,
		DRCAssoc:          1,
		DRC2Latency:       3,
		TableBase:         0x2000_0000,
		ITLBEntries:       64,
		PageWalkLatency:   30,
		MispredictPenalty: 7,
		TakenBubble:       1,
		DecodeRedirect:    3,
		MulLatency:        2,
		DivLatency:        11,
		SyscallLatency:    30,
		FetchAhead:        13,
		IssueWidth:        1,
	}
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.Mode < ModeBaseline || c.Mode > ModeVCFR {
		return fmt.Errorf("cpu: invalid mode %d", int(c.Mode))
	}
	if c.GshareBits <= 0 || c.GshareBits > 24 {
		return fmt.Errorf("cpu: gshare bits %d out of range", c.GshareBits)
	}
	if c.BTBEntries <= 0 || c.BTBAssoc <= 0 || c.BTBEntries%c.BTBAssoc != 0 {
		return fmt.Errorf("cpu: BTB %d entries / %d ways invalid", c.BTBEntries, c.BTBAssoc)
	}
	if c.RASDepth <= 0 {
		return fmt.Errorf("cpu: RAS depth %d invalid", c.RASDepth)
	}
	if c.ITLBEntries <= 0 || c.PageWalkLatency < 0 {
		return fmt.Errorf("cpu: iTLB %d entries / walk %d invalid",
			c.ITLBEntries, c.PageWalkLatency)
	}
	if c.DRCSplit && c.Mode == ModeVCFR && c.DRCEntries%2 != 0 {
		return fmt.Errorf("cpu: split DRC needs an even entry count, got %d", c.DRCEntries)
	}
	if c.DRC2Entries < 0 || (c.DRC2Entries > 0 && c.DRC2Latency <= 0) {
		return fmt.Errorf("cpu: DRC2 %d entries / %d latency invalid",
			c.DRC2Entries, c.DRC2Latency)
	}
	if c.IssueWidth < 1 || c.IssueWidth > 4 {
		return fmt.Errorf("cpu: issue width %d out of range [1,4]", c.IssueWidth)
	}
	if c.Mode == ModeVCFR {
		if c.DRCEntries <= 0 || c.DRCAssoc <= 0 || c.DRCEntries%c.DRCAssoc != 0 {
			return fmt.Errorf("cpu: DRC %d entries / %d ways invalid", c.DRCEntries, c.DRCAssoc)
		}
	}
	return nil
}
