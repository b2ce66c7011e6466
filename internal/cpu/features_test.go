package cpu

import (
	"errors"
	"fmt"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/ilr"
)

func TestITLBLRUBehaviour(t *testing.T) {
	tlb := newITLB(2)
	if !tlb.access(0x1000) { // page 1: miss
		t.Error("cold access hit")
	}
	if tlb.access(0x1040) { // same page: hit
		t.Error("same-page access missed")
	}
	tlb.access(0x2000) // page 2: miss, TLB full
	tlb.access(0x1000) // page 1 touched: page 2 is LRU
	tlb.access(0x3000) // page 3: evicts page 2
	if tlb.access(0x1000) {
		t.Error("recently used page evicted")
	}
	if !tlb.access(0x2000) {
		t.Error("LRU page survived")
	}
	if tlb.misses == 0 || tlb.accesses == 0 {
		t.Error("stats not recorded")
	}
}

func TestPipelineITLBStatsReported(t *testing.T) {
	res := rewriteSrc(t, "fib", fibSrc)
	out := runPipe(t, res, ModeBaseline, nil)
	if out.Stats.ITLBAccesses == 0 {
		t.Error("no iTLB accesses recorded")
	}
	if out.Stats.ITLBMisses == 0 {
		t.Error("no compulsory iTLB misses recorded")
	}
}

func TestPipelineDRC2AbsorbsWalks(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	without := runPipe(t, res, ModeVCFR, func(c *Config) { c.DRCEntries = 4 })
	with := runPipe(t, res, ModeVCFR, func(c *Config) {
		c.DRCEntries = 4 // tiny first level: recurring conflict misses
		c.DRC2Entries = 512
	})
	if with.DRC.L2Lookups == 0 {
		t.Fatal("DRC2 never consulted")
	}
	if with.DRC.L2Hits == 0 {
		t.Error("DRC2 never hit")
	}
	if with.DRC.TableWalks >= without.DRC.TableWalks {
		t.Errorf("DRC2 did not reduce walks: %d vs %d",
			with.DRC.TableWalks, without.DRC.TableWalks)
	}
	if with.Stats.Cycles > without.Stats.Cycles {
		t.Errorf("DRC2 slowed execution: %d vs %d cycles",
			with.Stats.Cycles, without.Stats.Cycles)
	}
}

func TestPipelineContextSwitchFlushes(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	steady := runPipe(t, res, ModeVCFR, nil)
	switching := runPipe(t, res, ModeVCFR, func(c *Config) { c.ContextSwitchEvery = 1000 })
	if switching.DRC.Flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	if switching.DRC.MissRate() <= steady.DRC.MissRate() {
		t.Errorf("flushing did not raise the DRC miss rate: %.3f vs %.3f",
			switching.DRC.MissRate(), steady.DRC.MissRate())
	}
	if switching.Stats.Cycles <= steady.Stats.Cycles {
		t.Errorf("context switches were free: %d vs %d cycles",
			switching.Stats.Cycles, steady.Stats.Cycles)
	}
	// Output unaffected: flushes are a performance event only.
	if string(switching.Out) != string(steady.Out) {
		t.Error("context switching changed program output")
	}
}

func TestPipelineSplitDRCConfig(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	split := runPipe(t, res, ModeVCFR, func(c *Config) { c.DRCSplit = true })
	if split.DRC.Lookups == 0 {
		t.Fatal("split DRC unused")
	}
	if string(split.Out) != "144000" {
		t.Errorf("split DRC changed output: %q", split.Out)
	}
	// Odd entry count is rejected for split organization.
	cfg := DefaultConfig(ModeVCFR)
	cfg.DRCSplit = true
	cfg.DRCEntries = 127
	if err := cfg.Validate(); err == nil {
		t.Error("odd split DRC accepted")
	}
	cfg = DefaultConfig(ModeVCFR)
	cfg.DRC2Entries = 64
	cfg.DRC2Latency = 0
	if err := cfg.Validate(); err == nil {
		t.Error("DRC2 without latency accepted")
	}
}

// TestPipelineTablePageProtection: a program that tries to read or write the
// randomization tables from user space must fault — the TLB page-visibility
// bit of Sec. IV-B — even when a word access only straddles into them, with
// and without the block cache. A byte store just below the tables is legal,
// and on the baseline (no tables to protect) every access just reads or
// writes plain memory and the program halts.
func TestPipelineTablePageProtection(t *testing.T) {
	base := DefaultConfig(ModeVCFR).TableBase
	cases := []struct {
		name  string
		body  string // %#x is the accessed address
		addr  uint32
		fault bool
	}{
		{"load at TableBase", "movi r2, %#x\n\tload r3, [r2+0]", base, true},
		{"word load straddling in", "movi r2, %#x\n\tload r3, [r2+0]", base - 2, true},
		{"word store straddling in", "movi r2, %#x\n\tstore [r2+0], r3", base - 3, true},
		{"push straddling in", "movi sp, %#x\n\tpush r3", base + 2, true},
		{"byte store below", "movi r2, %#x\n\tstoreb [r2+0], r3", base - 1, false},
	}
	for _, tc := range cases {
		src := ".entry main\nmain:\n\t" + fmt.Sprintf(tc.body, tc.addr) + "\n\thalt\n"
		img := asm.MustAssemble("snoop", src)
		res, err := ilr.Rewrite(img, ilr.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, noBB := range []bool{false, true} {
			cfg := DefaultConfig(ModeVCFR)
			cfg.NoBlockCache = noBB
			p, err := New(res.VCFR, cfg, res.Tables, res.RandRA)
			if err != nil {
				t.Fatal(err)
			}
			_, err = p.Run(0)
			if tc.fault && !errors.Is(err, ErrTablePageAccess) {
				t.Errorf("%s (nobbcache=%v): err = %v, want ErrTablePageAccess", tc.name, noBB, err)
			}
			if !tc.fault && (err != nil || !p.State().Halted) {
				t.Errorf("%s (nobbcache=%v): err = %v, halted %v; want a clean halt",
					tc.name, noBB, err, p.State().Halted)
			}
		}
		pb, err := New(img, DefaultConfig(ModeBaseline), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pb.Run(0); err != nil || !pb.State().Halted {
			t.Errorf("%s: baseline run: err = %v, halted %v", tc.name, err, pb.State().Halted)
		}
	}
}

func TestDRCFlushClearsEntries(t *testing.T) {
	tbl := &fakeTrans{m: map[uint32]uint32{0x9000: 0x100}}
	d := newDRC(8, 1, false, tbl)
	if _, hit, _ := d.lookup(lookupDerand, 0x9000); hit {
		t.Error("cold lookup hit")
	}
	if _, hit, _ := d.lookup(lookupDerand, 0x9000); !hit {
		t.Error("warm lookup missed")
	}
	d.flush()
	if _, hit, _ := d.lookup(lookupDerand, 0x9000); hit {
		t.Error("lookup hit after flush")
	}
	if d.stats.Flushes != 1 {
		t.Errorf("flushes = %d", d.stats.Flushes)
	}
}

func TestDRCProbeDoesNotCountLookups(t *testing.T) {
	tbl := &fakeTrans{m: map[uint32]uint32{0x9000: 0x100}}
	d := newDRC(8, 1, false, tbl)
	d.lookup(lookupDerand, 0x9000) // install
	before := d.stats.Lookups
	if _, hit := d.probe(lookupDerand, 0x9000); !hit {
		t.Error("probe missed resident entry")
	}
	if d.stats.Lookups != before {
		t.Error("probe counted as a lookup")
	}
	if _, hit := d.probe(lookupRand, 0x9000); hit {
		t.Error("probe ignored the direction tag")
	}
}

// fakeTrans is a minimal Translator for DRC unit tests.
type fakeTrans struct{ m map[uint32]uint32 }

func (f *fakeTrans) ToOrig(r uint32) (uint32, bool) { v, ok := f.m[r]; return v, ok }
func (f *fakeTrans) ToRand(o uint32) (uint32, bool) {
	for r, v := range f.m {
		if v == o {
			return r, true
		}
	}
	return 0, false
}
func (f *fakeTrans) Prohibited(uint32) bool { return true }

func TestDRCSplitBanksIsolateDirections(t *testing.T) {
	tbl := &fakeTrans{m: map[uint32]uint32{0x9000: 0x100}}
	d := newDRC(8, 1, true, tbl)
	d.lookup(lookupDerand, 0x9000)
	// The derand entry must not satisfy a rand-direction probe even at the
	// same index.
	if _, hit := d.probe(lookupRand, 0x9000); hit {
		t.Error("rand probe hit a derand entry across split banks")
	}
	if _, hit := d.probe(lookupDerand, 0x9000); !hit {
		t.Error("derand probe missed its own bank")
	}
}

// TestPipelineRASMispredictPath covers the return-address-stack mispredict
// path: deep recursion overflowing a tiny RAS forces mispredicted returns.
func TestPipelineRASMispredictPath(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	out := runPipe(t, res, ModeVCFR, func(c *Config) { c.RASDepth = 2 })
	if out.BPred.RASMispred == 0 {
		t.Error("tiny RAS never mispredicted despite 6-deep recursion")
	}
	if string(out.Out) != "144000" {
		t.Errorf("output corrupted by RAS pressure: %q", out.Out)
	}
}

// TestPipelineFetchCrossLineInstruction: an instruction straddling a cache
// line charges both lines.
func TestPipelineFetchCrossLineInstruction(t *testing.T) {
	// 60 bytes of nops (1 B each), then a 6-byte movi straddling the first
	// 64-byte line boundary.
	src := ".entry main\nmain:\n"
	for i := 0; i < 60; i++ {
		src += "\tnop\n"
	}
	src += "\tmovi r1, 305419896\n\thalt\n"
	img := asm.MustAssemble("straddle", src)
	p, err := New(img, DefaultConfig(ModeBaseline), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.FetchLines < 2 {
		t.Errorf("fetched %d lines, want >= 2 (straddling movi)", out.Stats.FetchLines)
	}
	if p.State().R[1] != 305419896 {
		t.Errorf("straddling instruction executed wrong: r1 = %d", p.State().R[1])
	}
}
