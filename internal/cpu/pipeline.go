package cpu

import (
	"context"
	"errors"
	"fmt"

	"vcfr/internal/emu"
	"vcfr/internal/isa"
	"vcfr/internal/mem"
	"vcfr/internal/program"
	"vcfr/internal/stats"
)

// Stats aggregates one simulation's counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64

	Branches   uint64 // executed conditional branches
	Jumps      uint64 // executed unconditional direct jumps
	Calls      uint64
	Rets       uint64
	Indirects  uint64 // jmpr + callr executed
	Loads      uint64
	Stores     uint64
	Syscalls   uint64
	Unrand     uint64 // instructions executed at un-randomized addresses
	FetchLines uint64 // line fetches issued by the front end

	// Stall breakdown (cycles).
	FetchStall    uint64
	MemStall      uint64
	ExecStall     uint64
	ControlStall  uint64
	DRCStall      uint64
	SyscallCycles uint64

	ITLBAccesses uint64
	ITLBMisses   uint64

	BPred BPredStats
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Result is everything one run produces, including the component statistics
// the experiments and the power model consume.
type Result struct {
	Stats Stats
	IL1   mem.CacheStats
	DL1   mem.CacheStats
	L2    mem.CacheStats
	DRAM  mem.DRAMStats
	DRC   DRCStats
	BPred BPredStats

	Out      []byte
	ExitCode uint32
	Halted   bool

	// Intervals holds the cumulative mid-run snapshots taken every
	// Config.SampleEvery instructions (plus one at run end); empty when
	// sampling is off. It is excluded from the Result's JSON shape — the
	// wire form is the derived results.Interval series.
	Intervals []stats.Snapshot `json:"-"`
}

// ErrControlViolation mirrors emu.ErrControlViolation for the pipeline: a
// control transfer targeted the prohibited un-randomized address of a
// randomized instruction.
var ErrControlViolation = errors.New("cpu: control transfer to prohibited un-randomized address")

// ErrTablePageAccess reports a user-space data access to the
// randomization/de-randomization table pages. The paper protects them with a
// TLB page-visibility bit (Sec. IV-B): "during execution of an application,
// these address translation tables can only be accessed by the
// micro-architecture".
var ErrTablePageAccess = errors.New("cpu: user-space access to invisible translation-table page")

// noLine marks an empty byte queue.
const noLine = ^uint32(0)

// Pipeline is the cycle-accounting machine.
type Pipeline struct {
	cfg    Config
	state  *emu.State
	mem    *program.AddressSpace
	hier   *mem.Hierarchy
	gsh    *gshare
	btb    *btb
	ras    *ras
	drc    *drc
	drc2   *drc     // optional dedicated level-2 buffer (Config.DRC2Entries)
	own    *machine // the storage Release recycles; nil on a borrowed hierarchy
	trans  emu.Translator
	randRA map[uint32]uint32
	bitmap map[uint32]bool

	pc         uint32 // UPC: the original-space cursor
	inRand     bool
	curLine    uint32
	asTag      uint32 // per-tenant physical page tag (see phys); 0 = identity
	tableSlots uint32
	tableEnd   uint32 // TableBase + tableSlots*8, hoisted out of stepTail
	itlb       *itlb
	stats      Stats

	// reg is the lazily built live counter registry (see register.go);
	// intervals accumulates the cumulative snapshots Config.SampleEvery
	// asks for. nextSample is the next sampling edge, persistent across
	// advanceTo slices so a scheduler preempting mid-window (multicore
	// quanta) keeps every snapshot on an exact SampleEvery boundary; 0
	// means not yet initialized.
	reg        *stats.Registry
	intervals  []stats.Snapshot
	nextSample uint64

	// pendingDerands counts auto-de-randomizing stack-bitmap loads performed
	// by the current instruction (timing charged after Exec); derandKey is
	// the randomized value the last of them translated, the key of its DRC
	// lookup.
	pendingDerands int
	derandKey      uint32

	issue  issueState
	tracer func(TraceEvent)

	// inject, when non-nil, is the fault-injection hook set (see inject.go);
	// injectSeq latches the executing instruction's sequence number at the
	// top of Step for hooks that fire after the commit counter advances
	// (Translated runs inside control-flow resolution). injectOut is the
	// scratch Outcome handed to the Outcome hook: passing a pointer to a
	// struct field instead of a stack variable keeps the hot loop's Outcome
	// from escaping to the heap on every Step.
	inject    *InjectHooks
	injectSeq uint64
	injectOut emu.Outcome

	// bb is the basic-block cache of pre-decoded instructions (bbcache.go);
	// nil when Config.NoBlockCache disabled it.
	bb *blockCache

	// recorder captures each executed instruction's functional outcome
	// (trace capture); replay, when non-nil, substitutes a recorded stream
	// for FetchDecode+Exec (trace replay). replayRecs/replayPos are the
	// zero-copy fast path for sources exposing a materialized slice;
	// replayScratch backs the pointer handed out on the interface path.
	// See replay.go.
	recorder      func(ExecRecord)
	replay        ReplaySource
	replayRecs    []ExecRecord
	replayPos     int
	replayScratch ExecRecord
}

// New builds a pipeline for img under cfg. trans and randRA supply the
// randomization artifacts; both must be nil for ModeBaseline and non-nil
// (trans at least) otherwise. cfg.Mode.Deploy selects all three from one
// ilr.Result. The image-independent storage comes from the pipelines
// Released under the same cfg when there are any (see machine.go).
func New(img *program.Image, cfg Config, trans emu.Translator, randRA map[uint32]uint32) (*Pipeline, error) {
	if err := checkNew(cfg, trans); err != nil {
		return nil, err
	}
	m, err := acquireMachine(cfg)
	if err != nil {
		return nil, err
	}
	p := assemble(img, cfg, trans, randRA, m)
	p.own = m
	return p, nil
}

// checkNew validates New's arguments.
func checkNew(cfg Config, trans emu.Translator) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Mode.Randomized() && trans == nil {
		return fmt.Errorf("cpu: mode %v requires a Translator", cfg.Mode)
	}
	return nil
}

// assemble resets m for a run of img and builds the pipeline around it:
// the image-dependent state (address space, architectural state, block
// cache, stack bitmap, hooks) is always new.
func assemble(img *program.Image, cfg Config, trans emu.Translator, randRA map[uint32]uint32, m *machine) *Pipeline {
	m.reset(trans)
	space := program.NewAddressSpace()
	space.LoadImage(img)
	st := emu.NewState(space)
	st.SetSP(emu.DefaultStackTop)

	p := &Pipeline{
		cfg:     cfg,
		state:   st,
		mem:     space,
		hier:    m.hier,
		gsh:     m.gsh,
		btb:     m.btb,
		ras:     m.ras,
		drc:     m.drc,
		drc2:    m.drc2,
		trans:   trans,
		randRA:  randRA,
		pc:      img.Entry,
		inRand:  cfg.Mode == ModeVCFR,
		curLine: noLine,
		itlb:    m.itlb,
	}
	if !cfg.NoBlockCache {
		p.bb = newBlockCache()
	}
	switch cfg.Mode {
	case ModeVCFR:
		p.bitmap = make(map[uint32]bool)
		st.Hooks = emu.Hooks{
			ReturnAddr: p.vcfrReturnAddr,
			LoadedWord: p.vcfrLoadedWord,
			StoredWord: p.vcfrStoredWord,
		}
		p.tableSlots = nextPow2(uint32(translatorLen(trans)))
		p.tableEnd = cfg.TableBase + p.tableSlots*8
	case ModeNaiveILR:
		if orig, ok := trans.ToOrig(img.Entry); ok {
			p.pc = orig
		}
	}
	return p
}

// translatorLen sizes the in-memory table for walk addressing; translators
// that do not expose a length get a default.
func translatorLen(t emu.Translator) int {
	type sized interface{ Len() int }
	if s, ok := t.(sized); ok {
		return s.Len()
	}
	return 4096
}

func nextPow2(v uint32) uint32 {
	n := uint32(1)
	for n < v {
		n <<= 1
	}
	if n == 0 {
		n = 1
	}
	return n
}

// SetInput provides the byte stream served to SysGetChar.
func (p *Pipeline) SetInput(in []byte) { p.state.In = in }

// TraceEvent describes one executed instruction for the tracer: the program
// counter in both spaces, where the bytes were fetched from, and the
// cumulative cycle count before the instruction issued.
type TraceEvent struct {
	Seq     uint64
	UPC     uint32 // original-space program counter
	RPC     uint32 // randomized-space program counter (== UPC when unmapped)
	Storage uint32 // address the bytes were fetched from
	Text    string // disassembled instruction
	Cycle   uint64
}

// SetTracer installs a per-instruction callback (nil disables tracing).
// Tracing does not perturb timing.
func (p *Pipeline) SetTracer(fn func(TraceEvent)) { p.tracer = fn }

func (p *Pipeline) emitTrace(in isa.Inst, sAddr uint32) {
	if p.tracer == nil {
		return
	}
	rpc := p.pc
	if p.trans != nil {
		if r, ok := p.trans.ToRand(p.pc); ok {
			rpc = r
		}
	}
	p.tracer(TraceEvent{
		Seq:     p.stats.Instructions,
		UPC:     p.pc,
		RPC:     rpc,
		Storage: sAddr,
		Text:    in.String(),
		Cycle:   p.stats.Cycles,
	})
}

// State exposes architectural state for tests and the attack harness.
func (p *Pipeline) State() *emu.State { return p.state }

// Hierarchy exposes the memory system (power model, experiments).
func (p *Pipeline) Hierarchy() *mem.Hierarchy { return p.hier }

// PC returns the current original-space program counter.
func (p *Pipeline) PC() uint32 { return p.pc }

func (p *Pipeline) vcfrReturnAddr(next uint32) uint32 {
	if r, ok := p.randRA[next]; ok {
		return r
	}
	return next
}

func (p *Pipeline) vcfrLoadedWord(addr, val uint32) uint32 {
	if !p.bitmap[addr] {
		return val
	}
	if orig, ok := p.trans.ToOrig(val); ok {
		p.pendingDerands++
		p.derandKey = val
		return orig
	}
	return val
}

func (p *Pipeline) vcfrStoredWord(addr, val uint32, isCallPush bool) {
	if isCallPush {
		if _, ok := p.trans.ToOrig(val); ok {
			p.bitmap[addr] = true
			return
		}
	}
	delete(p.bitmap, addr)
}

// storageAddr maps the logical pc to where the bytes live.
func (p *Pipeline) storageAddr(pc uint32) uint32 {
	if p.cfg.Mode == ModeNaiveILR {
		if r, ok := p.trans.ToRand(pc); ok {
			return r
		}
	}
	return pc
}

// predictIndex is the PC the predictors are indexed with: the original-space
// PC, or the randomized one under the PredictOnRPC ablation.
func (p *Pipeline) predictIndex(pc uint32) uint32 {
	if p.cfg.PredictOnRPC && p.cfg.Mode == ModeVCFR {
		if r, ok := p.trans.ToRand(pc); ok {
			return r
		}
	}
	return pc
}

// lineOf returns the line-aligned address containing addr.
func (p *Pipeline) lineOf(addr uint32) uint32 {
	return addr &^ uint32(p.cfg.Mem.IL1.LineSize-1)
}

// phys maps a process-virtual address onto the shared hierarchy's physical
// address space: a page-granular per-tenant tag XORed in above the page
// offset. Co-tenants of a cluster occupy distinct physical pages, so equal
// virtual addresses from different processes never alias in a shared cache's
// tags; within one page, locality is untouched. Solo pipelines and tenant 0
// carry tag 0, making the mapping the identity there (byte-identical solo
// timing).
func (p *Pipeline) phys(addr uint32) uint32 { return addr ^ p.asTag }

// fetchLine brings a new line into the byte queue and returns its fetch
// latency. It also fires the next-line prefetcher and the iTLB. The iTLB is
// process-private and virtually indexed; the cache sees physical lines.
func (p *Pipeline) fetchLine(line uint32) int {
	p.stats.FetchLines++
	lat := p.hier.IL1.Access(p.phys(line), false)
	if p.itlb.access(line) {
		lat += p.cfg.PageWalkLatency
	}
	p.hier.IL1.Prefetch(p.phys(line + uint32(p.cfg.Mem.IL1.LineSize)))
	p.curLine = line
	return lat
}

// exposed is the part of a latency not hidden under overlap cycles that are
// already being paid. It is the one overlap rule of the model: the
// front end's fetch-ahead window, a redirect's line fill and a DRC miss
// all charge only what sticks out past the cycles they run under.
func exposed(lat, overlap int) uint64 {
	if lat > overlap {
		return uint64(lat - overlap)
	}
	return 0
}

// fetchSupply accounts the front-end bubbles needed to deliver the
// instruction at sAddr (length n) along the sequential/predicted stream,
// where the decoupled front end hides up to FetchAhead cycles.
func (p *Pipeline) fetchSupply(sAddr uint32, n int) uint64 {
	var bubble uint64
	first := p.lineOf(sAddr)
	last := p.lineOf(sAddr + uint32(n) - 1)
	for line := first; ; line += uint32(p.cfg.Mem.IL1.LineSize) {
		if line != p.curLine {
			bubble += exposed(p.fetchLine(line), p.cfg.FetchAhead)
		}
		if line == last {
			break
		}
	}
	return bubble
}

// redirectFill steers fetch to next, the original-space target of a
// control-flow redirect, and returns the target-line fetch latency exposed
// beyond overlap: the redirect cycles already being charged, which the
// line fetch proceeds under.
func (p *Pipeline) redirectFill(next uint32, overlap int) uint64 {
	p.pc = next
	line := p.lineOf(p.storageAddr(next))
	if line == p.curLine {
		return 0
	}
	return exposed(p.fetchLine(line), overlap)
}

// drcWalkAddr is the table-page address a missed key walks to (open-address
// layout: 8 bytes per slot starting at TableBase).
func (p *Pipeline) drcWalkAddr(key uint32) uint32 {
	slot := (key >> 2) & (p.tableSlots - 1)
	return p.cfg.TableBase + slot*8
}

// drcLookup performs a timed DRC access in the given direction and returns
// the stall cycles it exposes beyond overlap. It is the only place that
// charges DRCStall; the caller adds the same cycles to its own account.
func (p *Pipeline) drcLookup(kind lookupKind, key uint32, overlap int) uint64 {
	val, hit, ok := p.drc.lookup(kind, key)
	if hit {
		return 0
	}
	// Optional dedicated level-2 buffer (the paper's considered-and-rejected
	// alternative): a hit there avoids the L2 table walk.
	if p.drc2 != nil {
		p.drc.stats.L2Lookups++
		_, hit = p.drc2.probe(kind, key)
	}
	var lat int
	if hit {
		p.drc.stats.L2Hits++
		lat = p.cfg.DRC2Latency
	} else {
		p.drc.stats.TableWalks++
		lat = p.hier.L2.Access(p.phys(p.drcWalkAddr(key)), false)
		if p.drc2 != nil && ok {
			p.drc2.install(kind, key, val)
		}
	}
	stall := exposed(lat, overlap)
	p.stats.DRCStall += stall
	return stall
}

// SwitchIn models a scheduler dispatching this pipeline onto a core another
// process just used: process-private translation state (DRC hierarchy,
// iTLB) is flushed and refills cold. That flush is the modelled switch-in
// cost. The block cache is kept: each tenant owns its own Pipeline, so its
// cached blocks only ever encode this process's own image and layout.
func (p *Pipeline) SwitchIn() {
	if p.drc != nil {
		p.drc.flush()
	}
	if p.drc2 != nil {
		p.drc2.flush()
	}
	p.itlb.flush()
}

// switchIfDue models the Config.ContextSwitchEvery switch-out/switch-in
// pair that falls before the next instruction. Both executors call it on
// entry; advanceTo ends every runBlocks call on a switch boundary.
func (p *Pipeline) switchIfDue() {
	if every := p.cfg.ContextSwitchEvery; every > 0 &&
		p.stats.Instructions > 0 && p.stats.Instructions%every == 0 {
		p.SwitchIn()
	}
}

// Step executes one instruction. It returns false once the machine halts.
func (p *Pipeline) Step() (bool, error) {
	if p.state.Halted {
		return false, nil
	}
	p.switchIfDue()
	var (
		in         isa.Inst
		out        emu.Outcome
		err        error
		recDerands int
		recHalt    bool
	)
	replaying := p.replay != nil
	if replaying {
		rec, done := p.nextReplay()
		if done {
			return false, nil
		}
		in = rec.Inst
		if in.Addr != p.pc {
			return false, fmt.Errorf(
				"cpu: replay divergence at instruction %d: trace UPC %#x, pipeline UPC %#x",
				p.stats.Instructions, in.Addr, p.pc)
		}
		out = emu.Outcome{Taken: rec.Taken, Target: rec.Target, MemKind: rec.MemKind, MemAddr: rec.MemAddr}
		recDerands, recHalt = rec.Derands, rec.Halt
	}
	sAddr := p.storageAddr(p.pc)
	if !replaying {
		if p.inject != nil {
			p.injectSeq = p.stats.Instructions
			if p.inject.FetchBytes != nil {
				in, err = p.fetchDecodeInjected(sAddr)
			} else {
				in, err = emu.FetchDecode(p.mem, sAddr)
			}
		} else {
			in, err = emu.FetchDecode(p.mem, sAddr)
		}
		if err != nil {
			return false, err
		}
		in.Addr = p.pc
	}
	if p.tracer != nil {
		p.emitTrace(in, sAddr)
	}

	// Front end.
	n := in.Len()
	fetchBubble := p.fetchSupply(sAddr, n)
	p.stats.FetchStall += fetchBubble

	// Execute functionally — or take the recorded functional outcome.
	if replaying {
		p.pendingDerands = recDerands
		if recHalt {
			p.state.Halted = true
			p.adoptReplayFinal()
		}
	} else {
		p.pendingDerands = 0
		out, err = emu.Exec(p.state, in)
		if err != nil {
			return false, err
		}
		if p.inject != nil && p.inject.Outcome != nil {
			p.injectOut = out
			p.inject.Outcome(p.stats.Instructions, in, &p.injectOut)
			out = p.injectOut
		}
	}
	p.stats.Instructions++
	cls := in.Class()
	cost, err := p.stepTail(&in, &out, n, cls.IsControl() && cls != isa.ClassHalt, 1+fetchBubble)
	if err != nil {
		return false, err
	}
	p.stats.Cycles += cost
	return !p.state.Halted, nil
}

// stepTail is the retire tail of one executed instruction, shared by the
// per-instruction Step path and the block-cached executor (runBlocks):
// trace capture, the un-randomized-space count, page-visibility
// enforcement, the self-modification watch, execute-stage stalls,
// auto-de-randomization charges, control-flow resolution (which advances
// the pc) and the co-issue credit. n is the instruction's encoded length,
// which both callers already hold. cost enters as the base cycle plus the
// fetch bubble, which the caller owns, and leaves as the instruction's
// whole cycle count; the caller counts the instruction and its cycles.
// stepTail is the only place that charges ControlStall.
func (p *Pipeline) stepTail(in *isa.Inst, out *emu.Outcome, n int, isCtl bool, cost uint64) (uint64, error) {
	// A replayed record is already a capture; only executed outcomes are
	// recorded.
	if p.recorder != nil && p.replay == nil {
		p.recorder(ExecRecord{
			Inst:    *in,
			Taken:   out.Taken,
			Target:  out.Target,
			MemKind: out.MemKind,
			MemAddr: out.MemAddr,
			Derands: p.pendingDerands,
			Halt:    p.state.Halted,
		})
	}
	vcfr := p.cfg.Mode == ModeVCFR
	if vcfr && !p.inRand {
		p.stats.Unrand++
	}
	// Page-visibility enforcement: the translation tables are invisible to
	// user-space data accesses, including any that only straddle into them.
	if vcfr && out.MemKind != emu.MemNone && p.touchesTables(out.MemAddr, accessSize(in.Op)) {
		return 0, fmt.Errorf("%w: %#x", ErrTablePageAccess, out.MemAddr)
	}
	if p.bb != nil && out.MemKind == emu.MemStore {
		p.bb.noteStore(out.MemAddr)
	}

	// Execution-stage stalls.
	cost += p.execStall(in, out)

	// Auto-de-randomized stack loads each pay a standalone DRC lookup,
	// keyed by the randomized value the load translated (an instruction
	// makes at most one data access). The stall is a DRC cost, and DRCStall
	// is a sub-account of ControlStall. A replayed record carries no loaded
	// value, so replay keys the lookup by the load address instead.
	for i := 0; i < p.pendingDerands; i++ {
		key := p.derandKey
		if p.replay != nil {
			key = out.MemAddr
		}
		stall := p.drcLookup(lookupDerand, key, 0)
		p.stats.ControlStall += stall
		cost += stall
	}

	// Control flow.
	if isCtl {
		ctl, err := p.control(*in, *out)
		if err != nil {
			return 0, err
		}
		p.stats.ControlStall += ctl
		cost += ctl
	} else {
		p.pc = in.Addr + uint32(n)
	}

	// Multi-issue: a simple, hazard-free ALU instruction that incurred no
	// stalls joins the current issue group for free. At width 1 coIssues is
	// always false and its state is never consulted, so skip it entirely.
	if w := p.cfg.IssueWidth; w > 1 && p.issue.coIssues(w, *in, *out, cost != 1) {
		cost = 0
	}
	return cost, nil
}

// accessSize is the byte width of op's data access: one for the byte
// load and store, a word for every other access (push and pop included).
func accessSize(op isa.Op) uint32 {
	if op == isa.OpLoadB || op == isa.OpStoreB {
		return 1
	}
	return 4
}

// touchesTables reports whether the size-byte access at addr reaches a
// translation-table byte. The access ends at the top of the address space
// rather than wrapping around to its bottom.
func (p *Pipeline) touchesTables(addr, size uint32) bool {
	last := addr + size - 1
	if last < addr {
		last = ^uint32(0)
	}
	return addr < p.tableEnd && last >= p.cfg.TableBase
}

// execStall accounts execute-stage stalls: data-cache misses, long-latency
// arithmetic, and syscalls.
func (p *Pipeline) execStall(in *isa.Inst, out *emu.Outcome) uint64 {
	var stall uint64
	switch out.MemKind {
	case emu.MemLoad:
		p.stats.Loads++
		lat := p.hier.DL1.Access(p.phys(out.MemAddr), false)
		if lat > p.cfg.Mem.DL1.Latency {
			stall += uint64(lat - p.cfg.Mem.DL1.Latency)
		}
	case emu.MemStore:
		p.stats.Stores++
		// Stores retire through the write buffer: traffic, no stall.
		p.hier.DL1.Access(p.phys(out.MemAddr), true)
	}
	p.stats.MemStall += stall

	var execExtra uint64
	switch in.Op {
	case isa.OpMul:
		execExtra = uint64(p.cfg.MulLatency)
	case isa.OpDiv, isa.OpMod:
		execExtra = uint64(p.cfg.DivLatency)
	case isa.OpSys:
		p.stats.Syscalls++
		execExtra = uint64(p.cfg.SyscallLatency)
		p.stats.SyscallCycles += execExtra
	}
	p.stats.ExecStall += execExtra
	return stall + execExtra
}

// resolveTarget converts the architectural (possibly randomized) target into
// the next original-space pc, enforcing the randomized-tag prohibition.
func (p *Pipeline) resolveTarget(target uint32) (uint32, error) {
	if p.cfg.Mode != ModeVCFR {
		return target, nil
	}
	if orig, ok := p.trans.ToOrig(target); ok {
		if p.inject != nil && p.inject.Translated != nil {
			// Only the injected path takes an address, so only it allocates.
			hooked := orig
			p.inject.Translated(p.injectSeq, target, &hooked)
			orig = hooked
		}
		p.inRand = true
		return orig, nil
	}
	if p.trans.Prohibited(target) {
		return 0, fmt.Errorf("%w: %#x", ErrControlViolation, target)
	}
	p.inRand = false
	return target, nil
}

// control accounts prediction, redirect, and DRC costs for an executed
// control-transfer instruction, advances the pc, and returns the cycles
// for the caller to charge to ControlStall.
//
// A taken transfer the BTB misses or mispredicts redirects at one of two
// costs. A direct one (branch, jump, call) resolves at decode, since it
// carries its target: it pays DecodeRedirect, and its randomized target is an
// immediate that the pre-decode pipeline exposes while the front end is
// still running ahead, so the DRC walk overlaps the fetch-ahead window. A
// register-indirect one (jmpr, callr) is a full misprediction, as are a
// mispredicted branch direction and a mispredicted return.
func (p *Pipeline) control(in isa.Inst, out emu.Outcome) (uint64, error) {
	idx := p.predictIndex(in.Addr)
	bp := &p.stats.BPred
	mp := p.cfg.MispredictPenalty
	switch cls := in.Class(); cls {
	case isa.ClassBranch:
		p.stats.Branches++
		bp.CondLookups++
		predicted := p.gsh.predict(idx)
		p.gsh.update(idx, out.Taken)
		switch {
		case predicted != out.Taken:
			bp.CondMispred++
			if out.Taken {
				return p.mispredicted(out.Target)
			}
			return uint64(mp) + p.redirectFill(in.NextAddr(), mp), nil
		case out.Taken:
			return p.taken(idx, out.Target, p.cfg.DecodeRedirect, p.cfg.FetchAhead, &bp.BTBWrongTgt)
		}
		p.pc = in.NextAddr()
		return 0, nil

	case isa.ClassJump:
		p.stats.Jumps++
		return p.taken(idx, out.Target, p.cfg.DecodeRedirect, p.cfg.FetchAhead, &bp.BTBWrongTgt)

	case isa.ClassJumpR:
		p.stats.Indirects++
		return p.taken(idx, out.Target, mp, mp, &bp.IndirectWrong)

	case isa.ClassCall, isa.ClassCallR:
		p.stats.Calls++
		var c uint64
		var err error
		if cls == isa.ClassCall {
			c, err = p.taken(idx, out.Target, p.cfg.DecodeRedirect, p.cfg.FetchAhead, &bp.BTBWrongTgt)
		} else {
			p.stats.Indirects++
			c, err = p.taken(idx, out.Target, mp, mp, &bp.IndirectWrong)
		}
		if err != nil {
			return 0, err
		}
		// RAS push: the pair of the fall-through in both spaces.
		nextUPC := in.NextAddr()
		pushed := nextUPC
		if p.cfg.Mode == ModeVCFR {
			if r, ok := p.randRA[nextUPC]; ok {
				pushed = r
				// The randomization-direction DRC lookup that produces the
				// randomized RA. The fall-through address is known as soon as
				// the call is decoded, so the decoupled front end starts the
				// walk in the fetch-ahead shadow.
				c += p.drcLookup(lookupRand, nextUPC, p.cfg.FetchAhead)
			}
		}
		p.ras.push(targetPair{orig: nextUPC, rand: pushed})
		bp.RASPushes++
		return c, nil

	case isa.ClassRet:
		p.stats.Rets++
		p.stats.Indirects++
		bp.RASPops++
		pair, ok := p.ras.pop()
		if ok && pair.rand == out.Target {
			// Correct RAS prediction: fetch already redirected to pair.orig.
			if p.cfg.Mode == ModeVCFR {
				_, p.inRand = p.trans.ToOrig(out.Target)
			}
			return uint64(p.cfg.TakenBubble) + p.redirectFill(pair.orig, p.cfg.FetchAhead), nil
		}
		bp.RASMispred++
		return p.mispredicted(out.Target)
	}
	return 0, fmt.Errorf("cpu: unexpected control class %v", in.Class())
}

// taken handles a BTB-predicted transfer that is actually taken to the
// architectural target. A BTB hit with the right target is a cheap
// front-end redirect; otherwise the transfer redirects with the caller's
// miss penalty and DRC overlap (see control), and a hit on the wrong
// target counts in wrongTgt.
func (p *Pipeline) taken(idx, target uint32, penalty, drcOverlap int, wrongTgt *uint64) (uint64, error) {
	p.stats.BPred.BTBLookups++
	pair, hit := p.btb.lookup(idx)
	next, err := p.resolveTarget(target)
	if err != nil {
		return 0, err
	}
	var cost uint64
	if hit && pair.rand == target {
		cost = uint64(p.cfg.TakenBubble)
		// The PredictOnRPC ablation: when the front end predicts in
		// randomized space, even a correct taken prediction must
		// de-randomize the predicted target through the DRC before fetch can
		// use it (Sec. IV-D explains that VCFR avoids exactly this by
		// predicting on UPC).
		if p.cfg.PredictOnRPC && p.cfg.Mode == ModeVCFR {
			cost += p.drcLookup(lookupDerand, target, p.cfg.TakenBubble)
		}
		cost += p.redirectFill(next, p.cfg.FetchAhead)
	} else {
		if hit {
			*wrongTgt++
		} else {
			p.stats.BPred.BTBMisses++
		}
		cost = p.redirect(next, target, penalty, drcOverlap)
	}
	p.btb.install(idx, targetPair{orig: next, rand: target})
	return cost, nil
}

// mispredicted redirects a transfer whose predicted target was wrong: a
// taken branch predicted not-taken, or a return the RAS mispredicted.
func (p *Pipeline) mispredicted(target uint32) (uint64, error) {
	next, err := p.resolveTarget(target)
	if err != nil {
		return 0, err
	}
	return p.redirect(next, target, p.cfg.MispredictPenalty, p.cfg.MispredictPenalty), nil
}

// redirect steers fetch to next, the resolved original-space pc of the
// architectural target, after a mispredicted or unpredicted transfer. It
// charges
//
//	penalty + max(0, walk − drcOverlap) + max(0, fill − (penalty + walk stall))
//
// where walk is the DRC de-randomization of target (VCFR only) and fill is
// the target line's fetch: the walk hides under drcOverlap cycles and the
// fill under everything charged before it.
func (p *Pipeline) redirect(next, target uint32, penalty, drcOverlap int) uint64 {
	cost := uint64(penalty)
	if p.cfg.Mode == ModeVCFR {
		cost += p.drcLookup(lookupDerand, target, drcOverlap)
	}
	return cost + p.redirectFill(next, int(cost))
}

// Run executes up to maxInsts instructions (0 means emu.DefaultMaxSteps) and
// returns the collected result.
func (p *Pipeline) Run(maxInsts uint64) (Result, error) {
	return p.RunContext(context.Background(), maxInsts)
}

// cancelCheckEvery is how many instructions RunContext executes between
// cancellation checks: frequent enough that a timed-out or abandoned run
// stops within microseconds of wall clock, rare enough that the check is
// invisible in the hot loop.
const cancelCheckEvery = 4096

// RunContext is Run with real mid-run cancellation: the context is polled
// every cancelCheckEvery instructions, so a cancelled or deadline-expired
// run stops promptly instead of executing to its instruction cap. The
// partial Result collected so far is returned alongside ctx's error.
func (p *Pipeline) RunContext(ctx context.Context, maxInsts uint64) (Result, error) {
	if p.state == nil {
		panic("cpu: run of a released Pipeline")
	}
	if maxInsts == 0 {
		maxInsts = emu.DefaultMaxSteps
	}
	next := p.stats.Instructions + cancelCheckEvery
	for p.stats.Instructions < maxInsts {
		if p.stats.Instructions >= next {
			next = p.stats.Instructions + cancelCheckEvery
			if err := ctx.Err(); err != nil {
				return p.result(), err
			}
		}
		target := next
		if maxInsts < target {
			target = maxInsts
		}
		running, err := p.advanceTo(target)
		if err != nil {
			return p.result(), err
		}
		if !running {
			break
		}
	}
	p.closeIntervals()
	return p.result(), nil
}

// advanceTo executes until the committed-instruction counter reaches target,
// the machine halts, or an error occurs. It is the re-enterable core of
// RunContext and the unit of scheduling for multi-tenant clusters: a quantum
// is one advanceTo call, and because the sampling edge (p.nextSample)
// persists on the pipeline, a tenant preempted mid-window resumes with every
// later snapshot still on an exact SampleEvery boundary.
//
// The block-cached fast path executes whole pre-decoded blocks per call,
// so every count-triggered event (quantum end, sample edge, context-switch
// boundary) is folded into the per-call instruction limit and lands exactly
// where the per-instruction path would put it. Replayed, injected, and
// traced runs take the per-instruction Step path: replay substitutes
// recorded outcomes for fetch/decode, injection must observe every raw
// fetch, and the tracer reads live cumulative counters.
func (p *Pipeline) advanceTo(target uint64) (bool, error) {
	// Interval sampling piggybacks on the same threshold pattern as the
	// quantum bound: one uint64 compare per instruction when sampling is
	// off, so the hot loop pays nothing for the spine.
	sampleEvery := p.cfg.SampleEvery
	if sampleEvery > 0 && p.nextSample == 0 {
		p.Registry() // build p.reg before the loop
		p.nextSample = p.stats.Instructions + sampleEvery
	}
	nextSample := ^uint64(0)
	if sampleEvery > 0 {
		nextSample = p.nextSample
	}
	useBlocks := p.bb != nil && p.replay == nil
	for p.stats.Instructions < target {
		if p.stats.Instructions >= nextSample {
			p.intervals = append(p.intervals, p.reg.Snapshot())
			nextSample = p.stats.Instructions + sampleEvery
			p.nextSample = nextSample
		}
		var (
			running bool
			err     error
		)
		if useBlocks && p.inject == nil && p.tracer == nil {
			limit := target
			if nextSample < limit {
				limit = nextSample
			}
			if every := p.cfg.ContextSwitchEvery; every > 0 {
				if nb := (p.stats.Instructions/every + 1) * every; nb < limit {
					limit = nb
				}
			}
			running, err = p.runBlocks(limit)
		} else {
			running, err = p.Step()
		}
		if err != nil || !running {
			return running, err
		}
	}
	return true, nil
}

// closeIntervals closes the final (possibly partial) sampling window unless
// the run ended exactly on the last sampled boundary. Idempotent; called
// once per finished (or cancelled) run.
func (p *Pipeline) closeIntervals() {
	if p.cfg.SampleEvery == 0 {
		return
	}
	if n := len(p.intervals); n == 0 || snapshotInsts(p.intervals[n-1]) < p.stats.Instructions {
		p.intervals = append(p.intervals, p.Registry().Snapshot())
	}
}

// snapshotInsts reads the committed-instruction count out of a snapshot.
func snapshotInsts(s stats.Snapshot) uint64 {
	v, _ := s.Uint("cpu.instructions")
	return v
}

func (p *Pipeline) result() Result {
	p.stats.ITLBAccesses = p.itlb.accesses
	p.stats.ITLBMisses = p.itlb.misses
	r := Result{
		Stats:    p.stats,
		IL1:      p.hier.IL1.Stats(),
		DL1:      p.hier.DL1.Stats(),
		L2:       p.hier.L2.Stats(),
		DRAM:     p.hier.DRAM.Stats(),
		BPred:    p.stats.BPred,
		Out:      p.state.Out,
		ExitCode: p.state.ExitCode,
		Halted:   p.state.Halted,
	}
	if p.drc != nil {
		r.DRC = p.drc.stats
	}
	r.Intervals = p.intervals
	return r
}
