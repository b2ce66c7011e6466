package cpu

import (
	"fmt"

	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// This file implements mid-execution re-randomization, the paper's periodic
// defense against table leakage (Sec. V-C): the kernel re-runs the ILR
// rewriter, installs the new translation tables, and the processor resumes
// the same architectural computation under a fresh layout. An attacker's
// previously disclosed layout knowledge goes stale — a leaked randomized
// address from the old epoch no longer has a table entry, so transferring
// control to it faults on the default-deny prohibition check.
//
// Rerandomize is the processor/kernel half of that hand-off. The caller
// produces the new epoch's rewrite (ilr.Result.Rerandomize) and passes it
// whole; Rerandomize deploys it under the pipeline's own mode (Mode.Deploy),
// so one mode's image can never be paired with another's tables, and swaps
// the live pipeline onto it in place, preserving architectural state:
//
//   - the executed image's text bytes are rewritten in memory (under VCFR the
//     new image re-encodes direct-transfer immediates and movi code constants
//     for the new layout; under naive ILR the whole scattered text moves),
//   - randomized code pointers held in data reloc slots, in bitmap-marked
//     stack slots (architecturally randomized return addresses), and in
//     registers are re-translated old-epoch -> original -> new-epoch,
//   - every structure caching stale translations is emptied: the DRC
//     hierarchy (its entries embed the old Translator), the BTB and RAS
//     (their targetPair entries pair original PCs with old-epoch randomized
//     targets), the iTLB (the code pages' contents changed), the fetch byte
//     queue, and the pre-decoded block cache.
//
// The UPC needs no adjustment: it is original-space in every mode, which is
// exactly what makes the swap transparent to the running computation.
//
// Pointer re-translation is conservative in the same way the paper's kernel
// is: a word is treated as a stale code pointer iff the old translator
// de-randomizes it. The randomized space (RandBase 0x4000_0000+) is disjoint
// from program data and stack addresses, so false positives do not arise in
// practice; the documented approximation is that a program storing a
// deliberately crafted integer equal to an old randomized address would see
// it re-translated.
func (p *Pipeline) Rerandomize(next *ilr.Result) error {
	if !p.cfg.Mode.Randomized() {
		return fmt.Errorf("cpu: mode %v does not re-randomize", p.cfg.Mode)
	}
	img, trans, randRA := p.cfg.Mode.Deploy(next)
	if trans == nil {
		return fmt.Errorf("cpu: Rerandomize requires a Translator")
	}
	if img == nil {
		return fmt.Errorf("cpu: Rerandomize requires the %v image", p.cfg.Mode)
	}
	old := p.trans

	switch p.cfg.Mode {
	case ModeNaiveILR:
		if err := p.swapScatteredText(img, old); err != nil {
			return err
		}
		// Architectural state (registers, stack, data) is entirely
		// original-space under naive ILR — only fetch is remapped — so the
		// table swap alone re-targets every future instruction fetch.
		p.trans = trans

	case ModeVCFR:
		// New epoch's code bytes, in place: same addresses, re-encoded
		// randomized immediates.
		for i := range img.Segments {
			seg := &img.Segments[i]
			if seg.Perm&program.PermX != 0 {
				p.mem.WriteBytes(seg.Addr, seg.Data)
			}
		}
		// Stale randomized pointers at data reloc sites (function-pointer
		// tables, jump tables in data). Code relocs were rewritten with the
		// text bytes above. A slot the program overwrote with a non-pointer
		// fails the old-epoch ToOrig and is left alone.
		for _, r := range img.Relocs {
			if r.InCode {
				continue
			}
			p.retranslateWord(r.Addr, old, trans)
		}
		// Architecturally randomized return addresses on the stack: exactly
		// the slots the store hook marked.
		for addr := range p.bitmap {
			p.retranslateWord(addr, old, trans)
		}
		// Randomized code pointers held in registers (a leaked RA moved to a
		// register, a movi-loaded function pointer awaiting an indirect call).
		for i := range p.state.R {
			if orig, ok := old.ToOrig(p.state.R[i]); ok {
				if r, ok := trans.ToRand(orig); ok {
					p.state.R[i] = r
				}
			}
		}
		p.trans = trans
		p.randRA = randRA
		// The DRC hierarchy resolves misses through the translator it is
		// bound to and its entries cache old-epoch pairs: empty it and rebind
		// it, keeping the accumulated statistics (the swap itself counts as
		// a flush).
		p.drc.rebind(trans)
		p.drc.stats.Flushes++
		if p.drc2 != nil {
			p.drc2.rebind(trans)
		}
		p.tableSlots = nextPow2(uint32(translatorLen(trans)))
		p.tableEnd = p.cfg.TableBase + p.tableSlots*8
		_, p.inRand = trans.ToRand(p.pc)
	}

	// BTB and RAS entries pair original PCs with old-epoch randomized
	// targets; a stale pair could alias a new-epoch target and redirect the
	// pc to the wrong original address. Reset them (prediction state only;
	// the BPred counters live in p.stats).
	p.btb.reset()
	p.ras.reset()
	// Code pages changed contents: shoot down the iTLB, drop the queued
	// fetch line, and invalidate every pre-decoded block.
	p.itlb.flush()
	p.curLine = noLine
	p.InvalidateBlocks()
	return nil
}

// swapScatteredText replaces the old epoch's scattered text with the new
// one: the old randomized range is zeroed (those bytes no longer decode to
// anything — fetching them faults, like an unmapped page), then the new
// scattered segment is written. img must be a re-randomization of the same
// original program under the same options, so both epochs share RandBase.
func (p *Pipeline) swapScatteredText(img *program.Image, old emu.Translator) error {
	text := img.Text()
	if text == nil {
		return fmt.Errorf("cpu: re-randomized image %q has no text segment", img.Name)
	}
	end := text.Addr + uint32(len(text.Data))
	if ranged, ok := old.(interface{ RandRange() (uint32, uint32) }); ok {
		if _, hi := ranged.RandRange(); hi+isa.MaxLength-1 > end {
			end = hi + isa.MaxLength - 1
		}
	}
	p.mem.WriteBytes(text.Addr, make([]byte, end-text.Addr))
	p.mem.WriteBytes(text.Addr, text.Data)
	return nil
}

// retranslateWord rewrites one memory word from the old epoch's randomized
// space into the new one, when it is a stale randomized pointer.
func (p *Pipeline) retranslateWord(addr uint32, old, next emu.Translator) {
	v := p.mem.ReadWord(addr)
	orig, ok := old.ToOrig(v)
	if !ok {
		return
	}
	if r, ok := next.ToRand(orig); ok {
		p.mem.WriteWord(addr, r)
	}
}
