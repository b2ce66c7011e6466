package gadget

import (
	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// This file is the disclosure-limited view of the scanner: the gadget set an
// attacker can actually assemble when only some code pages have been leaked
// (the JIT-ROP threat model, Snow et al.). internal/attack drives it with an
// incrementally growing disclosed-page set; disclosing every text page must
// reproduce the full Scan exactly, which TestScanPagesFullDisclosure pins.

// PageBits is the disclosure granularity: 4 KiB pages, matching the address
// space and iTLB page size. A JIT-ROP-style leak discloses code in page
// units.
const PageBits = 12

// TextPages returns the sorted page indices (addr >> PageBits) spanned by
// the image's executable segment — the universe a disclosure attacker can
// leak from.
func TextPages(img *program.Image) []uint32 {
	text := img.Text()
	if text == nil || len(text.Data) == 0 {
		return nil
	}
	first := text.Addr >> PageBits
	last := (text.Addr + uint32(len(text.Data)) - 1) >> PageBits
	out := make([]uint32, 0, last-first+1)
	for pg := first; pg <= last; pg++ {
		out = append(out, pg)
	}
	return out
}

// ByteLen returns the gadget's total encoded size in bytes, first
// instruction through the terminator.
func (g Gadget) ByteLen() uint32 {
	size := uint32(g.End.Len())
	for _, in := range g.Insts {
		size += uint32(in.Len())
	}
	return size
}

// ScanPages probes the image's executable segment exactly like Scan but
// admits a gadget only when every byte of it — first instruction through the
// terminating transfer — lies on a disclosed page, because those are the
// only bytes the attacker has seen. disclosed is keyed by page index
// (addr >> PageBits). Disclosing every page of TextPages is equivalent to a
// full Scan.
func ScanPages(img *program.Image, disclosed map[uint32]bool, maxInsts int) []Gadget {
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
		addr := text.Addr + uint32(off)
		if !disclosed[addr>>PageBits] {
			continue
		}
		g, ok := scanAt(text.Data, text.Addr, off, maxInsts, body)
		if !ok {
			continue
		}
		// The whole byte span must be disclosed, not just the leading page:
		// a gadget straddling into an unleaked page is one the attacker
		// cannot have read.
		covered := true
		for pg := addr >> PageBits; pg <= (addr+g.ByteLen()-1)>>PageBits; pg++ {
			if !disclosed[pg] {
				covered = false
				break
			}
		}
		if covered {
			out = append(out, g)
		}
	}
	return out
}
