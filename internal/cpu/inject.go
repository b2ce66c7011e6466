package cpu

import (
	"vcfr/internal/emu"
	"vcfr/internal/isa"
)

// InjectHooks are the pipeline's fault-injection points, installed with
// SetInjector. Each hook observes (and may mutate) one micro-architectural
// value as the instruction with sequence number seq flows through Step:
//
//   - FetchBytes fires at fetch, before decode, with the raw bytes read from
//     storage. Mutating buf models a transient corruption of the fetch path
//     (an opcode-byte flip); the mutated bytes go through the normal decoder
//     and a failed decode surfaces as the usual emu fetch Fault.
//   - Outcome fires after functional execution with the instruction's
//     emu.Outcome. Mutating out.Target models a corrupted control-flow
//     target in the architectural (possibly randomized) space: a flipped
//     branch/call immediate, a smashed stack return address, a corrupted
//     indirect-branch register.
//   - Translated fires inside the VCFR target resolution after a successful
//     DRC/table de-randomization, with the randomized key and the
//     original-space translation. Mutating orig models a corrupted DRC
//     entry: the prohibition check already passed, so execution continues
//     at the wrong original-space address.
//
// seq is the zero-based index of the executing instruction (the commit
// count before it retires), which is how an injector targets exactly one
// dynamic instruction. Hooks are ignored during trace replay: replay
// substitutes recorded outcomes for fetch/execute, so there is nothing
// micro-architectural to corrupt.
type InjectHooks struct {
	FetchBytes func(seq uint64, addr uint32, buf []byte)
	Outcome    func(seq uint64, in isa.Inst, out *emu.Outcome)
	Translated func(seq uint64, rand uint32, orig *uint32)
}

// SetInjector installs fault-injection hooks (nil removes them). The
// injected pipeline stays deterministic: with the same hooks the same run
// replays bit-identically.
//
// While hooks are installed the pipeline steps per instruction, so a
// FetchBytes hook observes every raw fetch that a pre-decoded block would
// skip; with nil installed the block cache takes over again. Per-instruction
// stepping is the costly path, so a caller that targets one instruction
// should arm the hooks for exactly that one: the fault campaign runs
// block-cached to the faulted instruction, arms, runs one instruction, clears
// the hooks and finishes block-cached. Every call invalidates the block
// cache, since a hook may have changed state behind it.
func (p *Pipeline) SetInjector(h *InjectHooks) {
	p.inject = h
	p.InvalidateBlocks()
}

// fetchDecodeInjected is emu.FetchDecode with the FetchBytes hook spliced
// between the storage read and the decoder.
func (p *Pipeline) fetchDecodeInjected(addr uint32) (isa.Inst, error) {
	var buf [isa.MaxLength]byte
	for i := range buf {
		buf[i] = p.mem.ByteAt(addr + uint32(i))
	}
	p.inject.FetchBytes(p.stats.Instructions, addr, buf[:])
	return emu.DecodeBytes(buf[:], addr)
}
