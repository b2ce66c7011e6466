package attack

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"

	"vcfr/internal/cpu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// pageSize is the leak oracle's disclosure unit.
const pageSize = 1 << gadget.PageBits

// mapEntryBytes is one naive-ILR location-map entry as it sits in kernel
// memory — an (original, randomized) address pair. VCFR has no leakable
// counterpart: its tables live in processor-protected pages.
const mapEntryBytes = 8

// executedImage returns the image a pipeline in the given mode fetches from.
func executedImage(res *ilr.Result, mode cpu.Mode) *program.Image {
	img, _, _ := mode.Deploy(res)
	return img
}

// viewImage wraps the attacker's reconstructed bytes as a scannable image.
// Unknown bytes are zero, which the decoder rejects, so the scanners only
// ever walk bytes the attacker has actually seen.
func viewImage(name string, addr uint32, data []byte) *program.Image {
	return &program.Image{
		Name: name + "+attacker-view",
		Segments: []program.Segment{
			{Name: "text", Addr: addr, Data: data, Perm: program.PermR | program.PermX},
		},
	}
}

// oracle is the JIT-ROP disclosure attacker's knowledge state against one
// victim. Each leak op serves one page; what a page reveals depends on the
// mode (see the package comment's threat-model table). The victim pipeline
// keeps executing between leaks and is swapped onto fresh layouts by the
// re-randomization arm, so knowledge is split into what survives an epoch
// (original-space facts) and what dies with it (randomized-space facts).
type oracle struct {
	mode   cpu.Mode
	res    *ilr.Result // current epoch's artifacts
	victim *cpu.Pipeline
	rng    *rand.Rand
	st     *Stats

	// The attacker's reconstructed text: the original layout under baseline
	// and naive ILR, the VCFR image under VCFR. Unknown bytes are zero.
	viewAddr uint32
	viewData []byte
	grew     bool // view changed since the last pool build

	// scan is the gadget scan of the image the view reconstructs: the
	// current epoch's executed image under baseline and VCFR, the original
	// image's instruction starts under naive ILR. Every pool is a filter
	// over it (see pool). stale marks a VCFR re-randomization whose new
	// image is scanned on the epoch's first pool build.
	scan  []gadget.Gadget
	stale bool
	built []gadget.Gadget // the last filtered pool; its array is reused
	// diverged records that a byte copied into the view differed from the
	// scanned image's byte at that address (a victim that rewrote its own
	// text): the filter is then no longer exact, and pools scan the view.
	diverged bool

	served          int // leak ops actually served (drives channel alternation)
	codePagesServed int
	mapPagesServed  int

	// Per-epoch code-page channel: the executed image's text pages in a
	// seed-shuffled serve order.
	disclosedCode map[uint32]bool
	codeOrder     []uint32
	codeNext      int

	// Naive ILR's second channel: the in-memory location map. byPage holds
	// the (orig, rand) entries leaked THIS epoch, indexed by the code page
	// their randomized address lies on; intended marks, by view offset,
	// original instruction starts whose bytes made it into viewData (those
	// survive re-randomization — the chain targets original addresses).
	origAddrs []uint32
	mapPages  int
	mapOrder  []int
	mapNext   int
	byPage    map[uint32][]mapEntry
	intended  []bool
}

// mapEntry is one leaked location-map entry.
type mapEntry struct{ orig, rand uint32 }

// newOracle builds the attacker's zero-knowledge state and its live victim
// from the (workload, mode)'s shared static state.
func newOracle(app *harness.App, sh *shared, mode cpu.Mode, rng *rand.Rand, st *Stats) (*oracle, error) {
	victim, _, err := app.Pipeline(mode, nil)
	if err != nil {
		return nil, err
	}
	o := &oracle{mode: mode, res: app.R, victim: victim, rng: rng, st: st, scan: sh.pool}
	switch mode {
	case cpu.ModeNaiveILR:
		// The view reconstructs the ORIGINAL layout: that is the space naive
		// ILR leaves live and the space the attacker's chain will target.
		text := app.R.Orig.Text()
		o.viewAddr, o.viewData = text.Addr, make([]byte, len(text.Data))
		o.origAddrs = sh.origAddrs
		o.mapPages = (len(o.origAddrs)*mapEntryBytes + pageSize - 1) / pageSize
		o.intended = make([]bool, len(text.Data))
	default:
		text := executedImage(app.R, mode).Text()
		o.viewAddr, o.viewData = text.Addr, make([]byte, len(text.Data))
	}
	o.resetEpoch()
	return o, nil
}

// resetEpoch clears the epoch-scoped channels and draws fresh serve orders.
func (o *oracle) resetEpoch() {
	pages := gadget.TextPages(executedImage(o.res, o.mode))
	o.codeOrder = append([]uint32(nil), pages...)
	o.rng.Shuffle(len(o.codeOrder), func(i, j int) {
		o.codeOrder[i], o.codeOrder[j] = o.codeOrder[j], o.codeOrder[i]
	})
	o.codeNext = 0
	o.disclosedCode = make(map[uint32]bool, len(o.codeOrder))
	if o.mode == cpu.ModeNaiveILR {
		o.mapOrder = o.rng.Perm(o.mapPages)
		o.mapNext = 0
		o.byPage = make(map[uint32][]mapEntry)
	}
}

// applyEpoch swaps the live victim onto the next layout and expires the
// attacker's epoch-scoped knowledge: disclosed code pages and map entries
// name the old randomized space and are dead. Under VCFR the whole view
// dies (it described the old image's randomized immediates); under naive
// ILR the original-space bytes already paired stay good.
func (o *oracle) applyEpoch(next *ilr.Result) error {
	if err := o.victim.Rerandomize(next); err != nil {
		return err
	}
	o.res = next
	if o.mode == cpu.ModeVCFR {
		// The new image is scanned on the epoch's first pool build. The
		// view starts empty again, so no copied byte can differ from it.
		for i := range o.viewData {
			o.viewData[i] = 0
		}
		o.grew, o.stale, o.diverged = false, true, false
	}
	o.resetEpoch()
	o.st.Rerandomizations++
	return nil
}

// universe is the number of distinct pages one epoch exposes — the
// denominator of the work-factor curve and the basis of the leak cap.
func (o *oracle) universe() int {
	n := len(o.codeOrder)
	if o.mode == cpu.ModeNaiveILR {
		n += o.mapPages
	}
	return n
}

// leak serves one disclosure op. It returns false when the current epoch
// has nothing left to leak (the attacker idles until the next swap, or is
// done for good without one).
func (o *oracle) leak() bool {
	switch o.mode {
	case cpu.ModeNaiveILR:
		mapLeft := o.mapNext < len(o.mapOrder)
		codeLeft := o.codeNext < len(o.codeOrder)
		switch {
		case !mapLeft && !codeLeft:
			return false
		case mapLeft && (!codeLeft || o.served%2 == 0):
			o.leakMapPage()
		default:
			o.leakCodePage()
		}
	default:
		if o.codeNext >= len(o.codeOrder) {
			return false
		}
		o.leakCodePage()
		o.grew = true
	}
	o.served++
	o.st.Leaks++
	return true
}

// leakCodePage discloses the next code page of the serve order, reading the
// bytes out of the live victim's memory. Under baseline/VCFR the page lands
// directly in the view (the executed text IS the addressable layout); under
// naive ILR a scattered page is useless until pair matches it with map
// entries from the same epoch: the page completes the instructions whose
// randomized bytes start on it, or start on the page before and run onto
// it.
func (o *oracle) leakCodePage() {
	pg := o.codeOrder[o.codeNext]
	o.codeNext++
	o.disclosedCode[pg] = true
	o.codePagesServed++
	o.st.CodePages++
	if o.mode == cpu.ModeNaiveILR {
		cands := slices.Concat(o.byPage[pg-1], o.byPage[pg])
		slices.SortFunc(cands, func(a, b mapEntry) int { return cmp.Compare(a.orig, b.orig) })
		o.pair(cands)
		return
	}
	text := executedImage(o.res, o.mode).Text()
	lo, hi := pg<<gadget.PageBits, (pg+1)<<gadget.PageBits
	if lo < text.Addr {
		lo = text.Addr
	}
	if hi > text.End() {
		hi = text.End()
	}
	mem := o.victim.State().Mem
	view := o.viewData[lo-o.viewAddr : hi-o.viewAddr]
	for i := range view {
		view[i] = mem.ByteAt(lo + uint32(i))
	}
	if !bytes.Equal(view, text.Data[lo-text.Addr:hi-text.Addr]) {
		o.diverged = true
	}
}

// leakMapPage discloses the next location-map page: every (orig, rand)
// entry on it. Naive hardware ILR keeps this map in ordinary kernel memory
// — that is exactly the exposure the paper's protected tables close.
func (o *oracle) leakMapPage() {
	m := o.mapOrder[o.mapNext]
	o.mapNext++
	o.mapPagesServed++
	o.st.MapPages++
	lo, hi := m*(pageSize/mapEntryBytes), (m+1)*(pageSize/mapEntryBytes)
	if hi > len(o.origAddrs) {
		hi = len(o.origAddrs)
	}
	fresh := make([]mapEntry, 0, hi-lo)
	for _, orig := range o.origAddrs[lo:hi] {
		if r, ok := o.res.Tables.ToRand(orig); ok {
			e := mapEntry{orig, r}
			fresh = append(fresh, e)
			o.byPage[r>>gadget.PageBits] = append(o.byPage[r>>gadget.PageBits], e)
		}
	}
	o.pair(fresh)
}

// pair promotes each of the candidate entries, visited in ascending
// original address, whose instruction's code bytes are all disclosed in the
// current epoch into the persistent original-space view. A leak passes the
// entries it can complete: a map page its own entries, a code page the
// entries whose bytes touch it. This cross-channel join is what periodic
// re-randomization attacks: a swap expires both channels, so partially
// assembled knowledge is lost.
func (o *oracle) pair(cands []mapEntry) {
	mem := o.victim.State().Mem
	orig := o.res.Orig.Text().Data
	var buf [isa.MaxLength]byte
	for _, e := range cands {
		a, r := e.orig, e.rand
		off := a - o.viewAddr
		if o.intended[off] || !o.disclosedCode[r>>gadget.PageBits] {
			continue
		}
		for i := range buf {
			buf[i] = mem.ByteAt(r + uint32(i))
		}
		in, ok := isa.TryDecode(buf[:], a)
		if !ok {
			continue
		}
		ln := uint32(in.Len())
		covered := true
		for pg := r >> gadget.PageBits; pg <= (r+ln-1)>>gadget.PageBits; pg++ {
			if !o.disclosedCode[pg] {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		n := copy(o.viewData[off:], buf[:ln])
		if n < int(ln) || !bytes.Equal(buf[:ln], orig[off:off+ln]) {
			o.diverged = true
		}
		o.intended[off] = true
		o.grew = true
	}
}

// pool compiles the attacker's current gadget view: the gadgets of the
// scanned image the attacker has seen in full. Under baseline/VCFR that is
// every gadget whose whole byte span lies on disclosed pages; under naive
// ILR every gadget whose instruction starts, terminator included, are all
// learned (a byte-offset gadget's original address is not a map key, so its
// fetch would fall through to the zeroed original space).
//
// The filter equals viewScan, the scan of the reconstructed view itself, as
// long as every byte copied into the view equals the scanned image's byte
// at that address: a gadget seen in full decodes from the same bytes in
// both, and any other probe of the view runs into an unknown (zero) byte,
// which does not decode, or off the disclosed span. leakCodePage and
// pair check the copied bytes; after a mismatch, pool scans the view.
//
// The returned slice is only valid until the next call.
func (o *oracle) pool() []gadget.Gadget {
	if o.diverged {
		return o.viewScan()
	}
	if o.stale {
		o.scan, o.stale = gadget.Scan(executedImage(o.res, o.mode), 0), false
	}
	out := o.built[:0]
	for _, g := range o.scan {
		if o.seen(g) {
			out = append(out, g)
		}
	}
	o.built = out
	return out
}

// seen reports whether the attacker has seen all of g.
func (o *oracle) seen(g gadget.Gadget) bool {
	if o.mode == cpu.ModeNaiveILR {
		for _, in := range g.Insts {
			if !o.intended[in.Addr-o.viewAddr] {
				return false
			}
		}
		return o.intended[g.End.Addr-o.viewAddr]
	}
	for pg := g.Addr >> gadget.PageBits; pg <= (g.Addr+g.ByteLen()-1)>>gadget.PageBits; pg++ {
		if !o.disclosedCode[pg] {
			return false
		}
	}
	return true
}

// viewScan scans the reconstructed view itself: under naive ILR only the
// learned instruction starts are probed, in ascending address order; under
// baseline/VCFR the view is scanned page-limited, exactly like the full
// scanner would.
func (o *oracle) viewScan() []gadget.Gadget {
	img := viewImage(o.res.Orig.Name, o.viewAddr, o.viewData)
	if o.mode == cpu.ModeNaiveILR {
		var learned []uint32
		for _, a := range o.origAddrs {
			if o.intended[a-o.viewAddr] {
				learned = append(learned, a)
			}
		}
		return gadget.ScanAddrs(img, learned, 0)
	}
	return gadget.ScanPages(img, o.disclosedCode, 0)
}
