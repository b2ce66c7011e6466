// Package gadget is the ROPgadget-4.0.1 substitute of the paper's security
// evaluation (Sec. V-B, Fig. 11): a byte-granularity gadget scanner over VX
// images, a gadget classifier, and a payload compiler that assembles working
// ROP chains from the discovered gadget pool.
//
// Like the paper's modified ROPgadget, the randomization-aware analysis
// searches for gadgets "using un-randomized instruction locations": a gadget
// survives randomization only if the attacker can still transfer control to
// its start address, which the default-deny randomization tables permit only
// for explicitly allowed failover targets.
package gadget

import (
	"fmt"
	"strings"

	"vcfr/internal/emu"
	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// DefaultMaxInsts is the default gadget length bound (instructions before
// the terminating transfer), matching ROPgadget's typical depth.
const DefaultMaxInsts = 5

// Gadget is an instruction sequence, discovered at an arbitrary byte offset,
// that ends in an attacker-steerable control transfer.
type Gadget struct {
	Addr  uint32     // address of the first instruction
	Insts []isa.Inst // body, excluding the terminator
	End   isa.Inst   // ret / jmpr / callr
}

// String renders the gadget ROPgadget-style: "pop r1 ; ret".
func (g Gadget) String() string {
	var b strings.Builder
	for _, in := range g.Insts {
		b.WriteString(in.String())
		b.WriteString(" ; ")
	}
	b.WriteString(g.End.Op.String())
	if g.End.Op != isa.OpRet {
		fmt.Fprintf(&b, " %s", g.End.Rd)
	}
	return b.String()
}

// Scan probes every byte offset of the image's executable segment for
// gadgets of at most maxInsts body instructions. Sequences are cut, as in
// ROPgadget, by anything that surrenders control predictably to the program
// (direct transfers, halt) or fails to decode.
func Scan(img *program.Image, maxInsts int) []Gadget {
	if maxInsts <= 0 {
		maxInsts = DefaultMaxInsts
	}
	text := img.Text()
	if text == nil {
		return nil
	}
	var buf [DefaultMaxInsts + 1]isa.Inst
	body := scratch(buf[:0], maxInsts)
	var out []Gadget
	for off := 0; off < len(text.Data); off++ {
		if g, ok := scanAt(text.Data, text.Addr, off, maxInsts, body); ok {
			out = append(out, g)
		}
	}
	return out
}

// ScanAddrs probes only the given start addresses, in the order given, for
// gadgets of at most maxInsts body instructions; addresses outside the
// executable segment are skipped. For ascending, duplicate-free addrs the
// result equals Scan(img, maxInsts) filtered to gadgets starting in addrs,
// element for element — without decoding the offsets in between.
func ScanAddrs(img *program.Image, addrs []uint32, maxInsts int) []Gadget {
	if maxInsts <= 0 {
		maxInsts = DefaultMaxInsts
	}
	text := img.Text()
	if text == nil {
		return nil
	}
	var buf [DefaultMaxInsts + 1]isa.Inst
	body := scratch(buf[:0], maxInsts)
	var out []Gadget
	for _, a := range addrs {
		if a < text.Addr || a-text.Addr >= uint32(len(text.Data)) {
			continue
		}
		if g, ok := scanAt(text.Data, text.Addr, int(a-text.Addr), maxInsts, body); ok {
			out = append(out, g)
		}
	}
	return out
}

// scratch returns body space for scanAt that holds maxInsts+1 instructions:
// buf itself when it is large enough, else a fresh slice.
func scratch(buf []isa.Inst, maxInsts int) []isa.Inst {
	if cap(buf) > maxInsts {
		return buf[:0]
	}
	return make([]isa.Inst, 0, maxInsts+1)
}

// scanAt tries to read one gadget starting at byte offset off. The
// candidate's body collects in body, scratch space (capacity at least
// maxInsts+1) that the caller reuses across offsets; only a gadget scanAt
// returns gets its own copy, so a scan allocates once per gadget with a
// body. An empty body stays nil.
func scanAt(data []byte, base uint32, off, maxInsts int, body []isa.Inst) (Gadget, bool) {
	addr := base + uint32(off)
	body = body[:0]
	for steps := 0; steps <= maxInsts; steps++ {
		in, ok := isa.TryDecode(data[off:], base+uint32(off))
		if !ok {
			return Gadget{}, false
		}
		switch in.Class() {
		case isa.ClassRet, isa.ClassJumpR, isa.ClassCallR:
			return Gadget{Addr: addr, Insts: append([]isa.Inst(nil), body...), End: in}, true
		case isa.ClassSeq:
			body = append(body, in)
			off += in.Len()
			if off >= len(data) {
				return Gadget{}, false
			}
		default:
			// Direct transfer or halt: control leaves attacker hands.
			return Gadget{}, false
		}
	}
	return Gadget{}, false
}

// Unique deduplicates gadgets by their instruction content (the ROPgadget
// "unique gadgets" count).
func Unique(gs []Gadget) []Gadget {
	seen := make(map[string]bool, len(gs))
	var out []Gadget
	for _, g := range gs {
		k := g.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

// Survivors filters a gadget pool to those an attacker can still reach after
// randomization: the gadget's start address must be a legal control-transfer
// target in the un-randomized space (an allowed failover entry). Everything
// else faults on the randomized-tag check.
func Survivors(gs []Gadget, trans emu.Translator) []Gadget {
	var out []Gadget
	for _, g := range gs {
		if _, isRand := trans.ToOrig(g.Addr); isRand {
			// The address collides with the randomized space — reaching it
			// executes a different (randomized-space) instruction, not this
			// gadget.
			continue
		}
		if !trans.Prohibited(g.Addr) {
			out = append(out, g)
		}
	}
	return out
}

// SurvivorsInImage returns the gadgets from pool whose exact bytes still sit
// at their original addresses in img — the survivor criterion for software
// in-place randomization (Pappas et al.), where the attacker's precomputed
// gadget works iff its bytes were not disturbed.
func SurvivorsInImage(pool []Gadget, img *program.Image) []Gadget {
	text := img.Text()
	if text == nil {
		return nil
	}
	var buf [DefaultMaxInsts + 1]isa.Inst
	var out []Gadget
	for _, g := range pool {
		size := g.ByteLen()
		off := g.Addr - text.Addr
		if g.Addr < text.Addr || off+size > uint32(len(text.Data)) {
			continue
		}
		body := scratch(buf[:0], len(g.Insts))
		if sg, ok := scanAt(text.Data, text.Addr, int(off), len(g.Insts), body); ok &&
			sg.String() == g.String() {
			out = append(out, g)
		}
	}
	return out
}

// RemovalRate returns the Fig. 11 metric: the fraction of the original
// gadget pool no longer mountable after randomization.
func RemovalRate(orig, surviving []Gadget) float64 {
	if len(orig) == 0 {
		return 0
	}
	return 1 - float64(len(surviving))/float64(len(orig))
}
