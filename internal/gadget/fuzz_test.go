package gadget

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// FuzzGadgetScan throws byte soup at the scanner: it must terminate, never
// panic, and every gadget that Scan or ScanAddrs reports must decode cleanly
// from its start address and end in an indirect transfer within the bound.
// text is the image's text at 0x1000. Each two probe bytes (little-endian)
// pick a ScanAddrs start in [0x1000-8, end+8), on top of four fixed probes
// below, at and past the ends of the text (including the top of the address
// space), so the probe list is unsorted and may repeat.
//
// Seeds: the checked-in corpus under testdata/fuzz/FuzzGadgetScan, 50
// random texts of 512-2559 bytes with 256 probes each.
func FuzzGadgetScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, text, probeBytes []byte) {
		const base = 0x1000
		img := &program.Image{
			Name:  "fuzz",
			Entry: base,
			Segments: []program.Segment{{
				Name: program.SegText, Addr: base, Data: text,
				Perm: program.PermR | program.PermX,
			}},
		}
		end := base + uint32(len(text))
		probes := []uint32{0, base - 1, end, ^uint32(0)}
		for i := 0; i+1 < len(probeBytes); i += 2 {
			off := uint32(binary.LittleEndian.Uint16(probeBytes[i:])) % uint32(len(text)+16)
			probes = append(probes, base-8+off)
		}
		found := Scan(img, DefaultMaxInsts)
		found = append(found, ScanAddrs(img, probes, DefaultMaxInsts)...)
		for _, g := range found {
			// Re-decode the gadget from scratch and verify its shape.
			addr := g.Addr
			for _, want := range g.Insts {
				in, err := isa.Decode(text[addr-base:], addr)
				if err != nil {
					t.Fatalf("reported gadget fails to decode at %#x: %v", addr, err)
				}
				if in.Op != want.Op {
					t.Fatalf("decode disagrees at %#x", addr)
				}
				addr += uint32(in.Len())
			}
			term, err := isa.Decode(text[addr-base:], addr)
			if err != nil || !term.Class().IsIndirect() {
				t.Fatalf("gadget terminator invalid at %#x", addr)
			}
			if len(g.Insts) > DefaultMaxInsts {
				t.Fatalf("gadget at %#x longer than bound", g.Addr)
			}
		}
	})
}

// randomCode builds n bytes of gadget-rich soup: runs of valid encodings
// (rets over-represented), raw random bytes, and zeroed holes like the
// unknown bytes of an attacker's partial view.
func randomCode(rng *rand.Rand, n int) []byte {
	var data []byte
	for len(data) < n {
		switch k := rng.Intn(10); {
		case k < 6:
			op := isa.Op(1 + rng.Intn(isa.NumOps))
			if rng.Intn(4) == 0 {
				op = isa.OpRet
			}
			data = isa.Encode(data, isa.Inst{
				Op: op, Rd: isa.Reg(rng.Intn(isa.NumRegs)),
				Rs: isa.Reg(rng.Intn(isa.NumRegs)), Rt: isa.Reg(rng.Intn(isa.NumRegs)),
				Imm: rng.Int31(), Target: rng.Uint32(),
			})
		case k < 8:
			junk := make([]byte, 1+rng.Intn(8))
			rng.Read(junk)
			data = append(data, junk...)
		default:
			data = append(data, make([]byte, 1+rng.Intn(64))...)
		}
	}
	return data[:n]
}

// TestScanAddrsMatchesFilteredScan is the equivalence ScanAddrs promises:
// for an ascending, duplicate-free probe list it returns exactly what the
// full byte-offset Scan returns restricted to those start addresses, in
// the same order — including probes that fall outside the text.
func TestScanAddrsMatchesFilteredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		base := uint32(0x1000 + 0x1000*rng.Intn(4))
		img := &program.Image{
			Name: "prop",
			Segments: []program.Segment{{
				Name: program.SegText, Addr: base, Data: randomCode(rng, 256+rng.Intn(4096)),
				Perm: program.PermR | program.PermX,
			}},
		}
		full := Scan(img, DefaultMaxInsts)
		for _, density := range []int{1, 4, 32} {
			var addrs []uint32
			keep := make(map[uint32]bool)
			end := base + uint32(len(img.Segments[0].Data))
			for a := base - 16; a < end+16; a++ {
				if rng.Intn(density) == 0 {
					addrs = append(addrs, a)
					keep[a] = true
				}
			}
			var want []Gadget
			for _, g := range full {
				if keep[g.Addr] {
					want = append(want, g)
				}
			}
			got := ScanAddrs(img, addrs, DefaultMaxInsts)
			if len(got) != len(want) {
				t.Fatalf("trial %d density 1/%d: ScanAddrs found %d gadgets, filtered Scan %d",
					trial, density, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d density 1/%d: gadget %d: got %#x %q, want %#x %q",
						trial, density, i, got[i].Addr, got[i], want[i].Addr, want[i])
				}
			}
			if density == 1 && len(want) == 0 {
				t.Fatalf("trial %d: soup produced no gadgets; the property is vacuous", trial)
			}
		}
	}
}

// TestSurvivorsSubsetProperty: survivors are always a subset of the scanned
// pool, and removal never exceeds 100%.
func TestSurvivorsSubsetProperty(t *testing.T) {
	img := asm.MustAssemble("s", victimSrc)
	pool := Scan(img, DefaultMaxInsts)
	inPool := make(map[uint32]bool, len(pool))
	for _, g := range pool {
		inPool[g.Addr] = true
	}
	for seed := int64(1); seed <= 5; seed++ {
		res, err := ilr.Rewrite(img, ilr.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		surv := Survivors(pool, res.Tables)
		if len(surv) > len(pool) {
			t.Fatalf("seed %d: more survivors than pool", seed)
		}
		for _, g := range surv {
			if !inPool[g.Addr] {
				t.Fatalf("seed %d: survivor %#x not in pool", seed, g.Addr)
			}
		}
		rate := RemovalRate(pool, surv)
		if rate < 0 || rate > 1 {
			t.Fatalf("seed %d: removal rate %f out of range", seed, rate)
		}
	}
}

// TestChainsAreWellFormed: assembled chains reference only gadget addresses
// from the pool plus immediates; the gadget list matches the words.
func TestChainsAreWellFormed(t *testing.T) {
	img := asm.MustAssemble("c", victimSrc)
	pool := Scan(img, DefaultMaxInsts)
	addrs := make(map[uint32]bool, len(pool))
	for _, g := range pool {
		addrs[g.Addr] = true
	}
	chain, err := BuildPrintChain(pool, "ABC")
	if err != nil {
		t.Fatal(err)
	}
	gadgetWords := 0
	for _, w := range chain.Words {
		if addrs[w] {
			gadgetWords++
		}
	}
	// Per character: pop-gadget + putc-gadget; plus pop + exit at the end.
	if gadgetWords != 2*3+2 {
		t.Errorf("chain has %d gadget words, want 8", gadgetWords)
	}
	for _, g := range chain.Gadgets {
		if !addrs[g.Addr] {
			t.Errorf("chain gadget %#x not from pool", g.Addr)
		}
	}
}

// TestScanAllocsPerGadget bounds the scanner's allocations: one body copy
// per returned gadget with a body, plus the result slice's growth. Nothing
// is allocated per rejected offset or per candidate that fails to become a
// gadget, which is what makes full-image scans cheap.
func TestScanAllocsPerGadget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	soup := make([]byte, 8192)
	rng.Read(soup)
	images := map[string]*program.Image{
		"victim": asm.MustAssemble("victim", victimSrc),
		"soup": {Name: "soup", Entry: 0x1000, Segments: []program.Segment{{
			Name: program.SegText, Addr: 0x1000, Data: soup,
			Perm: program.PermR | program.PermX,
		}}},
	}
	for name, img := range images {
		gs := Scan(img, DefaultMaxInsts)
		bound := 0
		var grown []Gadget
		for _, g := range gs {
			if g.Insts != nil {
				bound++
			}
			if len(grown) == cap(grown) {
				bound++ // the result slice grows here
			}
			grown = append(grown, g)
		}
		allocs := testing.AllocsPerRun(10, func() { Scan(img, DefaultMaxInsts) })
		if allocs > float64(bound) {
			t.Errorf("%s: Scan made %.0f allocs for %d gadgets, want <= %d", name, allocs, len(gs), bound)
		}
		t.Logf("%s: %d bytes, %d gadgets, %.0f allocs (bound %d)",
			name, len(img.Text().Data), len(gs), allocs, bound)
	}
}
