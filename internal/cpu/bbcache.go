package cpu

import (
	"vcfr/internal/emu"
	"vcfr/internal/isa"
)

// This file implements the basic-block cache, the software analog of the
// paper's DRC applied to the simulator itself: decode and address-translate
// each leader-started block once, then execute subsequent visits straight
// from the pre-decoded form. The cached form carries everything the hot loop
// would otherwise recompute per instruction — the decoded isa.Inst (no
// per-byte Memory interface dispatch through emu.FetchDecode), the storage
// address (no per-instruction Translator map lookup under naive ILR), the
// encoded length, and the control-class verdict.
//
// Correctness contract: a block-cached run is bit-identical to the
// per-instruction Step path. The cached form is purely a memoization of
// FetchDecode + storageAddr, both of which touch no timed structure, so the
// timing model cannot observe the difference; the lockstep and fuzz tests in
// bbcache_test.go / bbcache_fuzz_test.go enforce this.
//
// Invalidation: the cache drops everything whenever the bytes or the
// translation that produced a cached decode may have changed —
//
//   - a store that hits a page containing cached instruction bytes
//     (self-modifying code; detected in stepTail for both execution paths),
//   - SetInjector, armed or cleared (a hook may write memory from outside
//     the pipeline; while hooks are installed the pipeline steps per
//     instruction so a FetchBytes hook observes every raw fetch, which is
//     why the fault campaign arms them for exactly one instruction),
//   - SetReplay installing or removing a trace source (replayed runs do not
//     execute stores, so memory may silently diverge from an executed run),
//   - an explicit InvalidateBlocks call, required after mutating program
//     memory from outside the pipeline (test harnesses, attack payloads,
//     mid-run re-randomization that rewrites image bytes in place).
//
// Context switches flush the DRC and iTLB but not this cache: the cached
// decode depends only on image bytes and the static translator, neither of
// which a switch changes. That holds for same-process switches
// (Config.ContextSwitchEvery) and for tenant switches on a multi-core cluster
// (Pipeline.SwitchIn) alike, because every tenant owns its own Pipeline and
// so its own cache. FuzzBlockCacheInvalidation's context-switch action
// checks a switched, still-warm cache against the per-instruction path.
//
// Every pipeline allocates its block cache afresh and Release drops it: a
// pipeline built on recycled storage (machine.go) never inherits decoded
// blocks, which describe its predecessor's image.

// maxBlockInsts caps one cached block. Blocks end at the first control
// transfer anyway; the cap only bounds pathological straight-line runs so a
// mid-block interruption (sample edge, instruction budget) never leaves more
// than this many instructions between event checks.
const maxBlockInsts = 64

// bbPageBits is the granularity of the self-modification watch: any store
// into a page holding cached instruction bytes invalidates the cache.
const bbPageBits = 12

// decoded is one pre-decoded, pre-translated instruction of a cached block.
type decoded struct {
	in    isa.Inst
	sAddr uint32 // storage address of the bytes (≠ in.Addr under naive ILR)
	n     uint8  // encoded length, memoized from in.Len()
	ctl   bool   // control class other than halt: resolved via control()
}

// bblock is one decoded basic block: a leader-started run of instructions
// ending at the first control transfer (inclusive) or at maxBlockInsts.
type bblock struct {
	insts []decoded
	// succ memoizes the blocks that most recently followed this one, filled
	// round-robin from slot nextSucc: a branch's two sides, or a loop's
	// back-edge and exit, reach their block without a map read. Chains only
	// ever point at blocks of the current cache generation: flush() replaces
	// the map, and runBlocks drops its predecessor whenever a flush ends a
	// block, so no block decoded before a flush is linked to or reached again.
	succ     [2]succ
	nextSucc uint8
}

// succ is one memoized successor: the block led by leader (a UPC).
type succ struct {
	leader uint32
	blk    *bblock
}

// successor returns the memoized block led by pc, or nil.
func (b *bblock) successor(pc uint32) *bblock {
	for i := range b.succ {
		if s := &b.succ[i]; s.blk != nil && s.leader == pc {
			return s.blk
		}
	}
	return nil
}

// link memoizes blk, led by pc, as a successor of b.
func (b *bblock) link(pc uint32, blk *bblock) {
	b.succ[b.nextSucc] = succ{leader: pc, blk: blk}
	b.nextSucc ^= 1
}

// BlockCacheStats counts block-cache activity. The counters are diagnostic
// (exposed via Pipeline.BlockCacheStats, not registered on the stats spine,
// so result envelopes and /metrics are unchanged by the cache's existence).
type BlockCacheStats struct {
	Blocks  uint64 // blocks decoded
	Insts   uint64 // instructions pre-decoded into blocks
	Hits    uint64 // block-granular lookups served from the cache
	Flushes uint64 // whole-cache invalidations
}

// blockCache maps leader UPCs to decoded blocks and watches for stores into
// the pages its cached bytes came from.
type blockCache struct {
	blocks map[uint32]*bblock
	// pages is a bitset of the storage pages (addr >> bbPageBits) that hold
	// cached instruction bytes. Indexed directly so the per-store check is
	// one bounds-checked load; stack and heap pages beyond the highest code
	// page reject on the bounds check alone. Bits, not bools: scattered code
	// (naive ILR) spans most of the address space, and every pipeline
	// allocates this table afresh — the block cache describes one image, so
	// Release drops it with the pipeline instead of recycling it with the
	// image-independent storage (machine.go).
	pages   []uint64
	flushed bool // latched by flush() so an executing block stops itself
	// scratch is where decodeBlock grows a block before copying it out at
	// its exact length: a cached block keeps no spare capacity and leaves
	// no garbage behind.
	scratch []decoded
	stats   BlockCacheStats
}

func newBlockCache() *blockCache {
	return &blockCache{blocks: make(map[uint32]*bblock)}
}

// cover marks the pages of one cached instruction's byte range. The table
// grows at least twofold (capped at the 32-bit space), because scattered
// code raises the highest page many times per run.
func (c *blockCache) cover(addr uint32, n int) {
	last := (addr + uint32(n) - 1) >> bbPageBits
	for pg := addr >> bbPageBits; pg <= last; pg++ {
		w := pg >> 6
		if w >= uint32(len(c.pages)) {
			np := make([]uint64, min(max(int(w)+1, 2*len(c.pages)), 1<<(32-bbPageBits-6)))
			copy(np, c.pages)
			c.pages = np
		}
		c.pages[w] |= 1 << (pg & 63)
	}
}

// covers reports whether addr lies in a page holding cached bytes.
func (c *blockCache) covers(addr uint32) bool {
	pg := addr >> bbPageBits
	w := pg >> 6
	return w < uint32(len(c.pages)) && c.pages[w]&(1<<(pg&63)) != 0
}

// noteStore invalidates the cache when a store may have rewritten cached
// instruction bytes. A word store spans at most [addr, addr+3].
func (c *blockCache) noteStore(addr uint32) {
	if c.covers(addr) || c.covers(addr+3) {
		c.flush()
	}
}

// flush drops every cached block and the page watch. The latched flushed
// flag makes the block executor abandon the block it is running mid-way, so
// a self-modifying store never lets a stale decode of a *later* instruction
// in the same block execute.
func (c *blockCache) flush() {
	if len(c.blocks) > 0 || len(c.pages) > 0 {
		c.blocks = make(map[uint32]*bblock)
		c.pages = nil
	}
	c.flushed = true
	c.stats.Flushes++
}

// InvalidateBlocks drops every cached pre-decoded block. Call it after
// mutating program memory from outside the pipeline (the executing program's
// own stores are detected automatically). A nil receiver-side cache (replay
// pipelines, Config.NoBlockCache) makes this a no-op.
func (p *Pipeline) InvalidateBlocks() {
	if p.bb != nil {
		p.bb.flush()
	}
}

// BlockCacheStats returns a snapshot of the block cache's activity counters
// (zero value when the cache is disabled).
func (p *Pipeline) BlockCacheStats() BlockCacheStats {
	if p.bb == nil {
		return BlockCacheStats{}
	}
	return p.bb.stats
}

// decodeBlock decodes and address-translates the block starting at leader
// and installs it. Decoding touches only functional memory — never a timed
// structure — so pre-decoding is invisible to the timing model. A decode
// error at the leader is returned (matching what Step would produce at that
// pc); an error later in the block just truncates it, and execution falling
// through the truncated end re-attempts the faulting pc as a fresh leader.
func (p *Pipeline) decodeBlock(leader uint32) (*bblock, error) {
	insts := p.bb.scratch[:0]
	pc := leader
	for len(insts) < maxBlockInsts {
		sAddr := p.storageAddr(pc)
		in, err := emu.FetchDecode(p.mem, sAddr)
		if err != nil {
			if len(insts) == 0 {
				return nil, err
			}
			break
		}
		in.Addr = pc
		cls := in.Class()
		n := in.Len()
		p.bb.cover(sAddr, n)
		insts = append(insts, decoded{
			in:    in,
			sAddr: sAddr,
			n:     uint8(n),
			ctl:   cls.IsControl() && cls != isa.ClassHalt,
		})
		if cls.IsControl() {
			break
		}
		pc = in.NextAddr()
	}
	p.bb.scratch = insts
	b := &bblock{insts: append([]decoded(nil), insts...)}
	p.bb.blocks[leader] = b
	p.bb.stats.Blocks++
	p.bb.stats.Insts += uint64(len(b.insts))
	return b, nil
}

// blockAt returns the cached block led by p.pc, decoding it on a miss.
// prev, when non-nil, is the block that just ran to completion: its
// memoized successors are checked before the leader map, and a block found
// any other way is memoized as its successor. Either kind of lookup that
// finds the block counts as one cache hit.
func (p *Pipeline) blockAt(prev *bblock) (*bblock, error) {
	if prev != nil {
		if blk := prev.successor(p.pc); blk != nil {
			p.bb.stats.Hits++
			return blk, nil
		}
	}
	blk := p.bb.blocks[p.pc]
	if blk != nil {
		p.bb.stats.Hits++
	} else {
		var err error
		if blk, err = p.decodeBlock(p.pc); err != nil {
			return nil, err
		}
	}
	if prev != nil {
		prev.link(p.pc, blk)
	}
	return blk, nil
}

// runBlocks executes instructions from the block cache until the committed
// instruction count reaches limit, the machine halts, or an error surfaces.
// The caller (RunContext) owns all count-triggered events and picks limit so
// none falls inside a call: context-switch boundaries, sample edges, and
// cancellation checks all land exactly between runBlocks calls.
//
// Statistics are batched: the unconditionally-touched counters
// (instructions, cycles, fetch stalls) accumulate in locals and flush into
// the registry-registered fields only at return, so a Snapshot taken at an
// interval edge can never observe a partially-executed block.
func (p *Pipeline) runBlocks(limit uint64) (bool, error) {
	if p.state.Halted {
		return false, nil
	}
	if every := p.cfg.ContextSwitchEvery; every > 0 &&
		p.stats.Instructions > 0 && p.stats.Instructions%every == 0 {
		p.contextSwitch()
	}
	var (
		insts, cycles, fetchStall uint64

		base     = p.stats.Instructions
		lineMask = ^uint32(p.cfg.Mem.IL1.LineSize - 1)
		width    = p.cfg.IssueWidth
		vcfr     = p.cfg.Mode == ModeVCFR
	)
	flush := func() {
		p.stats.Instructions = base + insts
		p.stats.Cycles += cycles
		p.stats.FetchStall += fetchStall
	}
	var prev *bblock // the block that just ran to completion; nil after a flush
	for base+insts < limit {
		blk, err := p.blockAt(prev)
		if err != nil {
			flush()
			return false, err
		}
		prev = blk
		p.bb.flushed = false
		for i := range blk.insts {
			if base+insts >= limit {
				break
			}
			d := &blk.insts[i]
			// Front end: the same accounting as fetchSupply, with the common
			// case — every byte on the already-queued line — short-circuited.
			var bubble uint64
			if first := d.sAddr & lineMask; first != p.curLine ||
				(d.sAddr+uint32(d.n)-1)&lineMask != first {
				bubble = p.fetchSupply(d.sAddr, int(d.n))
				fetchStall += bubble
			}
			cost := 1 + bubble

			p.pendingDerands = 0
			var out emu.Outcome
			if err := emu.ExecInto(p.state, &d.in, &out); err != nil {
				flush()
				return false, err
			}
			if p.recorder != nil {
				p.recorder(ExecRecord{
					Inst:    d.in,
					Taken:   out.Taken,
					Target:  out.Target,
					MemKind: out.MemKind,
					MemAddr: out.MemAddr,
					Derands: p.pendingDerands,
					Halt:    p.state.Halted,
				})
			}
			insts++
			if vcfr && !p.inRand {
				p.stats.Unrand++
			}
			tail, err := p.stepTail(&d.in, &out, int(d.n), d.ctl)
			if err != nil {
				flush()
				return false, err
			}
			cost += tail
			if width > 1 && p.issue.coIssues(width, d.in, out, cost != 1) {
				cost = 0
			}
			cycles += cost
			if p.state.Halted {
				flush()
				return false, nil
			}
			if p.bb.flushed {
				// A store invalidated the cache (possibly rewriting a later
				// instruction of this very block, or a chained successor):
				// abandon the cached form, forget the chain, and re-decode
				// from the current pc.
				prev = nil
				break
			}
		}
	}
	flush()
	return true, nil
}
