// Package ilr implements the randomization software of the paper (Sec. IV-A):
// a static binary rewriter that applies complete, per-instruction
// instruction-location randomization to a VX image.
//
// One Rewrite produces every artifact the evaluation needs:
//
//   - The randomization/de-randomization tables (Tables), mapping every
//     instruction between its original and randomized address, with the
//     per-address "randomized tag" that prohibits control transfers to the
//     un-randomized addresses of safely randomized instructions.
//   - A VCFR image: the original storage layout with every relocated
//     code-address field (direct-transfer targets, code constants, jump
//     tables) retargeted into the randomized space. A VCFR processor
//     executes this image natively; on-chip caches see the original layout.
//   - A scattered image: instruction bytes physically moved to their
//     randomized addresses. This is what a naive hardware ILR executes and
//     what a software ILR VM interprets, and it is the artifact the gadget
//     scanner probes to measure the reduced attack surface.
//   - The safe-return-site map driving return-address randomization, in
//     software (rewrite-based) or architectural (DRC-based) mode.
package ilr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vcfr/internal/cfg"
	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// RetRandMode selects how return addresses are randomized (Sec. IV-C).
type RetRandMode int

// Return-address randomization modes.
const (
	// RetRandNone leaves every return address un-randomized.
	RetRandNone RetRandMode = iota + 1

	// RetRandSoftware randomizes only provably safe call sites — the
	// rewrite-based option, which cannot tolerate callees that read their
	// return address directly.
	RetRandSoftware

	// RetRandArch randomizes every direct call site: the architectural
	// stack-bitmap support de-randomizes explicit reads of return-address
	// slots, so PIC idioms and exception unwinding keep working. Indirect
	// call sites stay un-randomized, as in the paper.
	RetRandArch
)

// String names the mode.
func (m RetRandMode) String() string {
	switch m {
	case RetRandNone:
		return "none"
	case RetRandSoftware:
		return "software"
	case RetRandArch:
		return "arch"
	default:
		return fmt.Sprintf("retrand(%d)", int(m))
	}
}

// DefaultRandBase is where the randomized instruction space begins. It is
// far from the text, data, and stack ranges so that randomized and original
// addresses never collide.
const DefaultRandBase = 0x4000_0000

// slotSize is the allocation granule of the randomized space. Eight bytes
// holds the longest encoding (6) at a jitter of up to 2, so instructions
// land at byte-granular addresses without ever overlapping.
const slotSize = 8

// Options configures a rewrite.
type Options struct {
	// Seed drives all randomization; equal seeds give identical layouts.
	Seed int64

	// Spread multiplies the number of slots beyond the instruction count,
	// controlling how sparsely instructions scatter (entropy, and cache
	// behaviour of the scattered image). Default 16.
	Spread int

	// RandBase overrides the base of the randomized space. Default
	// DefaultRandBase.
	RandBase uint32

	// PageConfined keeps each instruction's randomized address within its
	// original 4 KiB page (Sec. IV-D's iTLB-friendly variant). The
	// randomized space mirrors the text pages at RandBase.
	PageConfined bool

	// RetRand selects return-address randomization. Default RetRandArch.
	RetRand RetRandMode
}

func (o Options) withDefaults() Options {
	if o.Spread <= 0 {
		o.Spread = 16
	}
	if o.RandBase == 0 {
		o.RandBase = DefaultRandBase
	}
	if o.RetRand == 0 {
		o.RetRand = RetRandArch
	}
	return o
}

// Stats summarizes one rewrite.
type Stats struct {
	Instructions    int // instructions randomized
	CodeRelocs      int // in-code address fields retargeted
	DataRelocs      int // data words (jump tables, pointers) retargeted
	CallsRandomized int // call sites with randomized return addresses
	CallsPlain      int // call sites left un-randomized
	ScanOnly        int // unpatchable computed-target addresses (failover)
	EntropyBits     float64
	TableBytes      int // size of the rand/derand tables (8 bytes per entry pair)
	// SoftwareGrowth is the code growth (bytes) the software return-address
	// option would add by expanding call into push+jmp at every randomized
	// site. The architectural option keeps it at zero.
	SoftwareGrowth int
}

// Result carries every artifact of one randomization pass.
type Result struct {
	Orig      *program.Image
	VCFR      *program.Image
	Scattered *program.Image
	Tables    *Tables
	// RandRA maps the original return address of each randomized call site
	// to its randomized value.
	RandRA map[uint32]uint32
	// Graph is the recovered CFG of Orig. Re-randomization epochs reuse it
	// (Rerandomize), so one Graph is shared read-only by every Result
	// derived from the same rewrite, possibly across goroutines: nothing may
	// mutate it after Rewrite returns.
	Graph *cfg.Graph
	Opts  Options
	Stats Stats
}

// Rewrite randomizes img: Analyze, then RewriteGraph. The input image is
// not modified.
func Rewrite(img *program.Image, opts Options) (*Result, error) {
	g, err := Analyze(img)
	if err != nil {
		return nil, err
	}
	return RewriteGraph(img, g, opts)
}

// Analyze is the seed-independent half of Rewrite: it validates img and
// recovers its CFG. Every layout of img can be rewritten from the one graph
// it returns.
func Analyze(img *program.Image) (*cfg.Graph, error) {
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("ilr: input image: %w", err)
	}
	g, err := cfg.Build(img)
	if err != nil {
		return nil, fmt.Errorf("ilr: %w", err)
	}
	return g, nil
}

// RewriteGraph is Rewrite after CFG recovery: it lays out and builds every
// artifact of one randomization of img from its already-recovered graph g
// (Analyze(img)). It only reads img and g, so any number of layouts, on any
// number of goroutines, may share them; each Result's Graph is g.
func RewriteGraph(img *program.Image, g *cfg.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	tables, entropy, err := assignAddresses(g, opts, rng)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Orig:   img,
		Tables: tables,
		Graph:  g,
		Opts:   opts,
	}
	res.Stats.Instructions = len(g.Insts)
	res.Stats.EntropyBits = entropy
	res.Stats.ScanOnly = len(g.ScanOnlyCandidates)
	res.Stats.TableBytes = tables.Len() * 8

	if err := res.buildVCFRImage(); err != nil {
		return nil, err
	}
	if err := res.buildScatteredImage(); err != nil {
		return nil, err
	}
	res.buildRandRA()
	return res, nil
}

// assignAddresses gives every instruction a distinct randomized address and
// builds the tables, including the randomized-tag (prohibition) set.
func assignAddresses(g *cfg.Graph, opts Options, rng *rand.Rand) (*Tables, float64, error) {
	n := len(g.Insts)
	t := newTables(n)

	if opts.PageConfined {
		if err := assignPageConfined(g, opts, rng, t); err != nil {
			return nil, 0, err
		}
	} else {
		slots := n * opts.Spread
		perm := rng.Perm(slots)
		for i, in := range g.Insts {
			jitter := uint32(rng.Intn(slotSize - isa.MaxLength + 1))
			raddr := opts.RandBase + uint32(perm[i])*slotSize + jitter
			t.add(in.Addr, raddr)
		}
	}

	// Failover entries (Sec. IV-A): addresses the analysis could not
	// guarantee free of computed references (scan-only candidates) remain
	// legal un-randomized entry points; every other un-randomized address is
	// prohibited by the default-deny tables.
	for a := range g.ScanOnlyCandidates {
		t.allow(a)
	}

	// Entropy of the placement, in bits per instruction: each instruction
	// independently lands in one of (slots * jitterRange) byte positions.
	entropy := entropyBits(n, opts)
	return t, entropy, nil
}

// assignPageConfined scatters instructions within their original 4 KiB page,
// mirrored at RandBase: each page's instructions are laid out in a random
// order with the page's free bytes distributed as random gaps. A page whose
// instructions total more than the page (possible when an original
// instruction straddles the boundary) spills its tail into the adjacent
// page's layout, so the placement stays within one page of the original —
// the property the iTLB cares about (Sec. IV-D's variant).
func assignPageConfined(g *cfg.Graph, opts Options, rng *rand.Rand, t *Tables) error {
	const pageSize = 4096
	byPage := make(map[uint32][]isa.Inst)
	var pages []uint32
	for _, in := range g.Insts {
		page := in.Addr &^ uint32(pageSize-1)
		if _, ok := byPage[page]; !ok {
			pages = append(pages, page)
		}
		byPage[page] = append(byPage[page], in)
	}
	// Deterministic page order (map iteration would break seed stability).
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	textPage := g.Img.Text().Addr &^ uint32(pageSize-1)

	var carry []isa.Inst // overflow from the previous page
	place := func(page uint32, insts []isa.Inst) []isa.Inst {
		total := 0
		for _, in := range insts {
			total += in.Len()
		}
		free := pageSize - total
		order := rng.Perm(len(insts))
		cursor := uint32(0)
		remainingSlots := len(insts) + 1
		var overflow []isa.Inst
		for _, idx := range order {
			in := insts[idx]
			if cursor+uint32(in.Len()) > pageSize {
				overflow = append(overflow, in)
				continue
			}
			gap := 0
			if free > 0 {
				gap = rng.Intn(free/remainingSlots + 1)
				if cursor+uint32(gap+in.Len()) > pageSize {
					gap = int(pageSize - cursor - uint32(in.Len()))
				}
			}
			free -= gap
			remainingSlots--
			cursor += uint32(gap)
			t.add(in.Addr, opts.RandBase+(page-textPage)+cursor)
			cursor += uint32(in.Len())
		}
		return overflow
	}
	for _, page := range pages {
		carry = place(page, append(carry, byPage[page]...))
	}
	if len(carry) > 0 {
		// Whatever still spills lands right after the last page's mirror.
		last := pages[len(pages)-1]
		carry = place(last+pageSize, carry)
		if len(carry) > 0 {
			return fmt.Errorf("ilr: page-confined layout could not place %d instructions", len(carry))
		}
	}
	return nil
}

// entropyBits is the per-instruction placement entropy: log2 of the number
// of byte positions an instruction can land on.
func entropyBits(n int, opts Options) float64 {
	positions := float64(n*opts.Spread) * float64(slotSize-isa.MaxLength+1)
	if opts.PageConfined {
		positions = 4096 / slotSize * float64(slotSize-isa.MaxLength+1)
	}
	return math.Log2(positions)
}
