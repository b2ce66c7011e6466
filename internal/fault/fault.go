// Package fault is the dependability-evaluation subsystem: it injects
// deterministic hardware-style faults into the cycle simulator and
// classifies what each one did to the program, reproducing the paper's
// dependability claim — under complete instruction-address randomization a
// corrupted control transfer lands, with overwhelming probability, on an
// unmapped randomized address, so the DRC/table miss turns silent
// control-flow corruption into a detected fault.
//
// The pieces: a typed fault model (Kind), a per-injection Injector that
// draws its bit flips from a seeded PRNG so every injection replays
// bit-identically, an outcome taxonomy (Outcome, Classify) measured against
// a clean reference run, counters over the results.CampaignCounts histogram
// (Add, Merge, Register), and a campaign runner (campaign.go) that shards
// thousands of injections over the harness worker pool and emits a
// paper-style detection-coverage table.
package fault

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/isa"
	"vcfr/internal/results"
	"vcfr/internal/stats"
)

// Kind is one entry of the typed fault model: what micro-architectural
// value gets corrupted.
type Kind string

// The fault model. Every kind flips Bits pseudo-random bits in its target
// value at one configured dynamic instruction.
const (
	// KindBranchTarget flips bits in the architectural target of a taken
	// direct transfer (branch, jump, call). Under VCFR the target is a
	// randomized-space address, so the flip lands in RPC space; under
	// baseline it corrupts the original-space target directly.
	KindBranchTarget Kind = "branch-target"
	// KindIndirectTarget flips bits in the register value driving an
	// indirect jump or call — a wild function pointer.
	KindIndirectTarget Kind = "indirect-target"
	// KindReturnAddress flips bits in the return address a ret pops — a
	// stack smash. Under VCFR stored return addresses are randomized, so
	// the flip corrupts an RPC-space value.
	KindReturnAddress Kind = "return-address"
	// KindOpcode flips bits in the first fetched byte of one instruction —
	// a transient corruption of the fetch path. The mutated bytes go
	// through the normal decoder.
	KindOpcode Kind = "opcode"
	// KindDRCEntry flips bits in the original-space translation the DRC
	// returns for a successfully de-randomized target — a corrupted DRC
	// entry. Only meaningful under VCFR (the other modes have no DRC);
	// campaign cells in other modes skip it.
	KindDRCEntry Kind = "drc-entry"
)

// AllKinds returns the full fault model in its stable report order.
func AllKinds() []Kind {
	return []Kind{KindBranchTarget, KindIndirectTarget, KindReturnAddress, KindOpcode, KindDRCEntry}
}

// ControlKinds returns the control-flow fault kinds — the ones the paper's
// detection argument is about (an opcode flip is caught by the decoder in
// any mode; a control-target flip is only reliably caught under VCFR).
func ControlKinds() []Kind {
	return []Kind{KindBranchTarget, KindIndirectTarget, KindReturnAddress, KindDRCEntry}
}

func (k Kind) valid() bool {
	switch k {
	case KindBranchTarget, KindIndirectTarget, KindReturnAddress, KindOpcode, KindDRCEntry:
		return true
	}
	return false
}

// NeedsDRC reports whether the kind only exists in a mode with a DRC.
func (k Kind) NeedsDRC() bool { return k == KindDRCEntry }

// matches reports whether this kind can fire on an instruction of the given
// class whose transfer was taken.
func (k Kind) matches(class isa.Class, taken bool) bool {
	switch k {
	case KindBranchTarget, KindDRCEntry:
		// drc-entry candidates are restricted to direct taken transfers:
		// those always resolve through the DRC/table path (a correctly
		// RAS-predicted return bypasses it).
		return taken && (class == isa.ClassBranch || class == isa.ClassJump || class == isa.ClassCall)
	case KindIndirectTarget:
		return taken && (class == isa.ClassJumpR || class == isa.ClassCallR)
	case KindReturnAddress:
		return taken && class == isa.ClassRet
	case KindOpcode:
		return true
	}
	return false
}

// ParseKinds maps CLI/request strings onto fault kinds.
func ParseKinds(names []string) ([]Kind, error) {
	out := make([]Kind, 0, len(names))
	for _, n := range names {
		k := Kind(strings.TrimSpace(n))
		if !k.valid() {
			return nil, fmt.Errorf("fault: unknown fault kind %q (want one of %v)", n, AllKinds())
		}
		out = append(out, k)
	}
	return out, nil
}

// Fault is one fully specified injection: flip Bits pseudo-random bits
// (drawn from Seed) in the value Kind names, at dynamic instruction Index.
// The spec is pure data — the same Fault always produces the same injected
// execution.
type Fault struct {
	Kind  Kind   `json:"kind"`
	Index uint64 `json:"index"` // zero-based dynamic instruction number
	Bits  int    `json:"bits"`  // bits to flip; <= 0 means 1
	Seed  int64  `json:"seed"`  // PRNG seed the flip mask is drawn from
}

// Injector arms one Fault as a cpu.InjectHooks set. It fires at most once.
type Injector struct {
	f         Fault
	targetXor uint32
	opcodeXor byte
	fired     bool
}

// NewInjector precomputes the injection's flip mask from the fault's seed.
func NewInjector(f Fault) *Injector {
	if f.Bits <= 0 {
		f.Bits = 1
	}
	rng := rand.New(rand.NewSource(f.Seed))
	j := &Injector{f: f}
	if f.Kind == KindOpcode {
		j.opcodeXor = byte(flipMask(rng, f.Bits, 8))
	} else {
		j.targetXor = flipMask(rng, f.Bits, 32)
	}
	return j
}

// flipMask draws a mask with exactly min(bits, width) distinct bits set.
func flipMask(rng *rand.Rand, bits, width int) uint32 {
	if bits > width {
		bits = width
	}
	var m uint32
	for n := 0; n < bits; {
		b := uint32(1) << rng.Intn(width)
		if m&b == 0 {
			m |= b
			n++
		}
	}
	return m
}

// Fired reports whether the armed fault actually corrupted something. A
// fault that never fired (its index's instruction did not match the kind)
// yields a run identical to the reference and classifies as masked.
func (j *Injector) Fired() bool { return j.fired }

// Hooks returns the pipeline hook set that performs this injection.
func (j *Injector) Hooks() *cpu.InjectHooks {
	switch j.f.Kind {
	case KindOpcode:
		return &cpu.InjectHooks{FetchBytes: j.fetchBytes}
	case KindDRCEntry:
		return &cpu.InjectHooks{Translated: j.translated}
	default:
		return &cpu.InjectHooks{Outcome: j.outcome}
	}
}

func (j *Injector) fetchBytes(seq uint64, addr uint32, buf []byte) {
	if j.fired || seq != j.f.Index {
		return
	}
	buf[0] ^= j.opcodeXor
	j.fired = true
}

func (j *Injector) outcome(seq uint64, in isa.Inst, out *emu.Outcome) {
	if j.fired || seq != j.f.Index {
		return
	}
	if !j.f.Kind.matches(in.Class(), out.Taken) {
		return
	}
	out.Target ^= j.targetXor
	j.fired = true
}

func (j *Injector) translated(seq uint64, rand uint32, orig *uint32) {
	if j.fired || seq != j.f.Index {
		return
	}
	*orig ^= j.targetXor
	j.fired = true
}

// Outcome is one injection's classified effect.
type Outcome string

// The outcome taxonomy, from best (the architecture caught it) to worst
// (it silently corrupted the program's result).
const (
	// OutcomeDetectedRPC: the corrupted control transfer targeted an
	// unmapped or prohibited randomized-space address and the machine
	// raised a control violation — the paper's detection mechanism.
	OutcomeDetectedRPC Outcome = "detected-unmapped-rpc"
	// OutcomeDetectedIllegal: execution reached bytes that do not decode
	// (illegal opcode / failed fetch) and the machine faulted.
	OutcomeDetectedIllegal Outcome = "detected-illegal-instruction"
	// OutcomeCrash: the run died on any other architectural fault (divide
	// by zero, bad syscall, table-page access, simulator panic).
	OutcomeCrash Outcome = "crash"
	// OutcomeSDC: the run completed but its final state (halt status, exit
	// code, output bytes) differs from the clean reference — silent data
	// corruption.
	OutcomeSDC Outcome = "silent-data-corruption"
	// OutcomeMasked: the run completed with final state identical to the
	// reference; the fault was architecturally masked.
	OutcomeMasked Outcome = "masked"
	// OutcomeHang: the reference halted but the injected run was still
	// executing at its (generous) instruction budget — a hang or livelock.
	OutcomeHang Outcome = "hang"
)

// Outcomes returns the taxonomy in its stable report order.
func Outcomes() []Outcome {
	return []Outcome{OutcomeDetectedRPC, OutcomeDetectedIllegal, OutcomeCrash,
		OutcomeSDC, OutcomeMasked, OutcomeHang}
}

// Reference is the clean run's final state an injected run is judged
// against.
type Reference struct {
	Insts    uint64 // instructions the clean run executed
	Halted   bool   // clean run halted (vs hitting the campaign's cap)
	ExitCode uint32
	Out      []byte
}

// Budget is the injected run's instruction allowance: enough slack beyond
// the reference that legitimate detours still finish, small enough that a
// livelock is caught quickly. A reference that never halted (capped run)
// gets exactly its own length — beyond it nothing new can be learned.
func (r Reference) Budget() uint64 {
	if r.Halted {
		return 2*r.Insts + 1024
	}
	return r.Insts
}

// Classify maps one injected run's result onto the outcome taxonomy.
func Classify(res cpu.Result, err error, ref Reference) Outcome {
	if err != nil {
		if errors.Is(err, cpu.ErrControlViolation) {
			return OutcomeDetectedRPC
		}
		var f *emu.Fault
		if errors.As(err, &f) &&
			(strings.HasPrefix(f.Msg, "fetch:") || strings.HasPrefix(f.Msg, "invalid opcode")) {
			return OutcomeDetectedIllegal
		}
		return OutcomeCrash
	}
	if ref.Halted && !res.Halted {
		return OutcomeHang
	}
	if res.Halted == ref.Halted && res.ExitCode == ref.ExitCode && bytes.Equal(res.Out, ref.Out) {
		return OutcomeMasked
	}
	return OutcomeSDC
}

// Add counts one classified injection into c, the outcome histogram of a
// campaign row, of a campaign's totals, or of the service's running
// fault.* series.
func Add(c *results.CampaignCounts, o Outcome) {
	c.Injected++
	switch o {
	case OutcomeDetectedRPC:
		c.DetectedUnmappedRPC++
	case OutcomeDetectedIllegal:
		c.DetectedIllegal++
	case OutcomeCrash:
		c.Crashes++
	case OutcomeSDC:
		c.SDC++
	case OutcomeMasked:
		c.Masked++
	case OutcomeHang:
		c.Hangs++
	}
}

// Merge accumulates src into dst.
func Merge(dst *results.CampaignCounts, src results.CampaignCounts) {
	dst.Injected += src.Injected
	dst.DetectedUnmappedRPC += src.DetectedUnmappedRPC
	dst.DetectedIllegal += src.DetectedIllegal
	dst.Crashes += src.Crashes
	dst.SDC += src.SDC
	dst.Masked += src.Masked
	dst.Hangs += src.Hangs
}

// DetectionRate returns the share of c's injections the architecture caught
// (control violation or illegal instruction); 0 when nothing was injected.
func DetectionRate(c results.CampaignCounts) float64 {
	if c.Injected == 0 {
		return 0
	}
	return float64(c.DetectedUnmappedRPC+c.DetectedIllegal) / float64(c.Injected)
}

// Register adds c's counters to a registry under the fault.* namespace.
func Register(r *stats.Registry, c *results.CampaignCounts) {
	f := r.Scope("fault")
	f.Counter("injected", "Fault injections executed and classified.", &c.Injected)
	f.Counter("detected.unmapped_rpc", "Injections detected as a control transfer to an unmapped/prohibited randomized address.", &c.DetectedUnmappedRPC)
	f.Counter("detected.illegal_instruction", "Injections detected by a failed fetch/decode or illegal opcode.", &c.DetectedIllegal)
	f.Counter("crashes", "Injections that died on another architectural fault.", &c.Crashes)
	f.Counter("sdc", "Injections that silently corrupted the final program state.", &c.SDC)
	f.Counter("masked", "Injections whose final program state matched the clean reference.", &c.Masked)
	f.Counter("hangs", "Injections still running at the instruction budget after the reference halted.", &c.Hangs)
}
