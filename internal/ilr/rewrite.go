package ilr

import (
	"fmt"

	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// buildVCFRImage clones the original image and retargets every relocated
// code-address field into the randomized space: direct-transfer target
// fields, movi code constants, and data words (jump tables, function-pointer
// tables). Storage layout is untouched — that is the point of VCFR.
func (res *Result) buildVCFRImage() error {
	img := res.Orig.Clone()
	img.Name = res.Orig.Name + ".vcfr"
	for _, r := range img.Relocs {
		v, err := img.ReadWord(r.Addr)
		if err != nil {
			return fmt.Errorf("ilr: reloc at %#x: %w", r.Addr, err)
		}
		rnd, ok := res.Tables.ToRand(v)
		if !ok {
			// A reloc whose value is not an instruction start (e.g. a word
			// that merely looked relocatable) stays as-is.
			continue
		}
		if err := img.WriteWord(r.Addr, rnd); err != nil {
			return fmt.Errorf("ilr: reloc at %#x: %w", r.Addr, err)
		}
		if r.InCode {
			res.Stats.CodeRelocs++
		} else {
			res.Stats.DataRelocs++
		}
	}
	res.VCFR = img
	return nil
}

// buildScatteredImage materializes the physically randomized layout: the
// instruction originally at U is stored at Tables.ToRand(U). Instruction
// bytes are copied verbatim (the scattered binary is executed logically in
// the original space through the location map, so embedded direct targets
// keep their original values). This is the image a naive hardware ILR
// fetches from and the one the gadget scanner probes.
func (res *Result) buildScatteredImage() error {
	lo, hi := res.Tables.RandRange()
	if hi <= lo {
		return fmt.Errorf("ilr: empty randomized range")
	}
	// hi is one past the highest assigned address; the instruction there may
	// extend up to MaxLength-1 bytes further.
	buf := make([]byte, hi-res.Opts.RandBase+isa.MaxLength-1)
	var enc [isa.MaxLength]byte
	for _, in := range res.Graph.Insts {
		raddr, ok := res.Tables.ToRand(in.Addr)
		if !ok {
			return fmt.Errorf("ilr: instruction at %#x has no randomized address", in.Addr)
		}
		off := raddr - res.Opts.RandBase
		n := copy(buf[off:], isa.Encode(enc[:0], in))
		if n != in.Len() {
			return fmt.Errorf("ilr: truncated copy at randomized %#x", raddr)
		}
	}

	img := &program.Image{
		Name:  res.Orig.Name + ".scattered",
		Entry: mustRand(res.Tables, res.Orig.Entry),
		Segments: []program.Segment{{
			Name: program.SegText,
			Addr: res.Opts.RandBase,
			Data: buf,
			Perm: program.PermR | program.PermX,
		}},
	}
	// Symbols move with their instructions (diagnostics only); data symbols
	// stay. Symbols pointing at padding between instructions are dropped.
	for _, s := range res.Orig.Symbols {
		if r, ok := res.Tables.ToRand(s.Addr); ok {
			img.Symbols = append(img.Symbols, program.Symbol{
				Name: s.Name, Addr: r, Size: s.Size, Func: s.Func,
			})
		} else if seg := res.Orig.SegAt(s.Addr); seg != nil && seg.Perm&program.PermX == 0 {
			img.Symbols = append(img.Symbols, s)
		}
	}
	for _, seg := range res.Orig.Segments {
		if seg.Perm&program.PermX != 0 {
			continue
		}
		img.Segments = append(img.Segments, program.Segment{
			Name: seg.Name,
			Addr: seg.Addr,
			Data: append([]byte(nil), seg.Data...),
			Perm: seg.Perm,
		})
	}
	res.Scattered = img
	return nil
}

func mustRand(t *Tables, orig uint32) uint32 {
	r, ok := t.ToRand(orig)
	if !ok {
		panic(fmt.Sprintf("ilr: no randomized address for %#x", orig))
	}
	return r
}

// softwareGrowthPerSite is the code growth of expanding "call target" (5
// bytes) into "movi rX, randRA; push rX; jmp target" (6+2+5 bytes) under the
// software return-address option.
const softwareGrowthPerSite = 8

// buildRandRA decides, per call site, whether the pushed return address is
// randomized, honoring the configured RetRandMode. Call sites that keep
// their original return address get their fall-through address un-prohibited
// (the ret will legitimately transfer control to the un-randomized address,
// exactly the failover path of Sec. IV-A).
func (res *Result) buildRandRA() {
	res.RandRA = make(map[uint32]uint32)
	safe := res.Graph.SafeReturnSites()
	for _, in := range res.Graph.Insts {
		var randomize bool
		switch in.Class() {
		case isa.ClassCall:
			switch res.Opts.RetRand {
			case RetRandArch:
				randomize = true
			case RetRandSoftware:
				randomize = safe[in.Addr]
			}
		case isa.ClassCallR:
			// Indirect-call return addresses are never randomized (paper,
			// Sec. IV-A).
			randomize = false
		default:
			continue
		}
		next := in.NextAddr()
		if randomize {
			if r, ok := res.Tables.ToRand(next); ok {
				res.RandRA[next] = r
				res.Stats.CallsRandomized++
				if res.Opts.RetRand == RetRandSoftware {
					res.Stats.SoftwareGrowth += softwareGrowthPerSite
				}
				// A callee that reads its return address explicitly may
				// "return" through a plain jmpr of the auto-de-randomized
				// value (Fig. 10). That jump lands on the un-randomized
				// fall-through address, so the address must stay a legal
				// failover target even though the RA itself is randomized.
				if !safe[in.Addr] {
					res.Tables.allow(next)
				}
				continue
			}
		}
		res.Stats.CallsPlain++
		res.Tables.allow(next)
	}
}

// Rerandomize applies a fresh randomization of the same original image with
// a new seed — the paper's periodic re-randomization defense against table
// leakage (Sec. V-C). The result equals Rewrite(res.Orig, opts with the new
// seed); the original image and its CFG are unchanged, so the new epoch
// shares res.Graph instead of recovering it again.
func (res *Result) Rerandomize(seed int64) (*Result, error) {
	opts := res.Opts
	opts.Seed = seed
	return RewriteGraph(res.Orig, res.Graph, opts)
}
