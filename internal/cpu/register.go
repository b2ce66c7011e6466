package cpu

import (
	"strconv"

	"vcfr/internal/stats"
)

// This file wires the pipeline into the statistics spine (internal/stats).
// Every counter below is registered exactly once under its canonical dotted
// name; the text report, the results envelope's interval series, and any
// Prometheus rendering all derive from these registrations instead of naming
// fields by hand. The registered pointers alias the fields the hot loop
// increments, so the spine costs nothing on the simulate path.

// Register registers the core pipeline counters under the cpu.* names. The
// nested BPred sub-struct is *not* registered here — callers register the
// authoritative BPredStats themselves (the live predictor state for a
// running pipeline, the top-level Result copy for a finished run), which
// keeps each bpred.* name single-sourced.
func (s *Stats) Register(r *stats.Registry) {
	s.register(r, &s.ITLBAccesses, &s.ITLBMisses)
}

// register is the one authoritative cpu.* name list. The iTLB counters are
// passed in because they have two sources: the Stats mirror fields (synced
// when a run finishes — the Result path) and the live itlb structure (the
// mid-run sampling path).
func (s *Stats) register(r *stats.Registry, itlbAcc, itlbMiss *uint64) {
	sc := r.Scope("cpu")
	sc.Counter("cycles", "Total simulated cycles.", &s.Cycles)
	sc.Counter("instructions", "Instructions committed.", &s.Instructions)
	sc.Counter("branches", "Executed conditional branches.", &s.Branches)
	sc.Counter("jumps", "Executed unconditional direct jumps.", &s.Jumps)
	sc.Counter("calls", "Executed calls (direct and indirect).", &s.Calls)
	sc.Counter("rets", "Executed returns.", &s.Rets)
	sc.Counter("indirects", "Executed indirect transfers (jmpr/callr/ret).", &s.Indirects)
	sc.Counter("loads", "Executed loads.", &s.Loads)
	sc.Counter("stores", "Executed stores.", &s.Stores)
	sc.Counter("syscalls", "Executed syscalls.", &s.Syscalls)
	sc.Counter("unrand", "Instructions executed at un-randomized addresses.", &s.Unrand)
	sc.Counter("fetch.lines", "Line fetches issued by the front end.", &s.FetchLines)
	sc.Counter("stall.fetch", "Front-end fetch stall cycles.", &s.FetchStall)
	sc.Counter("stall.mem", "Data-cache stall cycles.", &s.MemStall)
	sc.Counter("stall.exec", "Execute-stage stall cycles (long ops, syscalls).", &s.ExecStall)
	sc.Counter("stall.control", "Control-flow stall cycles.", &s.ControlStall)
	sc.Counter("stall.drc", "DRC translation stall cycles.", &s.DRCStall)
	sc.Counter("stall.syscall", "Syscall latency cycles (subset of stall.exec).", &s.SyscallCycles)
	sc.Counter("itlb.accesses", "Instruction-TLB accesses.", itlbAcc)
	sc.Counter("itlb.misses", "Instruction-TLB misses (page walks).", itlbMiss)
}

// Register registers the branch-prediction counters under the bpred.* names.
func (s *BPredStats) Register(r *stats.Registry) {
	sc := r.Scope("bpred")
	sc.Counter("cond.lookups", "Conditional direction predictions.", &s.CondLookups)
	sc.Counter("cond.mispredicts", "Wrong-direction conditional predictions.", &s.CondMispred)
	sc.Counter("btb.lookups", "BTB lookups.", &s.BTBLookups)
	sc.Counter("btb.misses", "BTB misses.", &s.BTBMisses)
	sc.Counter("btb.wrong_target", "BTB hits with a stale target.", &s.BTBWrongTgt)
	sc.Counter("ras.pushes", "Return-address-stack pushes.", &s.RASPushes)
	sc.Counter("ras.pops", "Return-address-stack pops.", &s.RASPops)
	sc.Counter("ras.mispredicts", "Return-address mispredictions.", &s.RASMispred)
	sc.Counter("indirect.wrong", "Indirect-target mispredictions.", &s.IndirectWrong)
}

// Register registers the De-Randomization Cache counters under the drc.*
// names.
func (s *DRCStats) Register(r *stats.Registry) {
	sc := r.Scope("drc")
	sc.Counter("lookups", "DRC lookups.", &s.Lookups)
	sc.Counter("misses", "DRC misses.", &s.Misses)
	sc.Counter("lookups.rand", "Randomization-direction lookups (call RAs).", &s.RandLookups)
	sc.Counter("lookups.derand", "De-randomization-direction lookups.", &s.DerandLookups)
	sc.Counter("table_walks", "L2-backed table walks caused by misses.", &s.TableWalks)
	sc.Counter("installs", "Entries installed.", &s.Installs)
	sc.Counter("l2.lookups", "Level-2 DRC buffer probes.", &s.L2Lookups)
	sc.Counter("l2.hits", "Level-2 DRC buffer hits.", &s.L2Hits)
	sc.Counter("flushes", "Context-switch flushes.", &s.Flushes)
}

// register fills reg with the pipeline's live counters: core stats, the live
// predictor state, the memory hierarchy, the iTLB's own counters (the Stats
// mirror fields are synced only when a run finishes), and — under VCFR —
// the DRC. Snapshots of the returned registry observe the simulation mid-run.
func (p *Pipeline) register(reg *stats.Registry) *stats.Registry {
	p.stats.register(reg, &p.itlb.accesses, &p.itlb.misses)
	p.stats.BPred.Register(reg)
	p.hier.Register(reg)
	if p.drc != nil {
		p.drc.stats.Register(reg)
	}
	return reg
}

// Registry returns the pipeline's live counter registry, built on first use
// and cached. Mid-run snapshots of it power interval sampling
// (Config.SampleEvery) and never perturb timing.
func (p *Pipeline) Registry() *stats.Registry {
	if p.reg == nil {
		p.reg = p.register(stats.New())
	}
	return p.reg
}

// Registry builds a value-backed registry over a finished run's counters:
// the same canonical names as the live pipeline registry, read from the
// Result's embedded stat structs. Consumers that format finished runs (the
// vcfrsim text report, harness tables) resolve names against this instead of
// naming struct fields a second time.
func (r *Result) Registry() *stats.Registry {
	reg := stats.New()
	r.Stats.Register(reg)
	r.BPred.Register(reg)
	r.IL1.Register(reg, "mem.il1")
	r.DL1.Register(reg, "mem.dl1")
	r.L2.Register(reg, "mem.l2")
	r.DRAM.Register(reg, "dram")
	r.DRC.Register(reg)
	return reg
}

// Register registers one core's scheduler counters under the sched.* names.
func (s *SchedStats) Register(r *stats.Registry) {
	sc := r.Scope("sched")
	sc.Counter("quanta", "Time slices dispatched on this core.", &s.Quanta)
	sc.Counter("switches", "Dispatches that changed tenants (switch-in cost charged).", &s.Switches)
	sc.Counter("preemptions", "Quanta that expired with the tenant still runnable.", &s.Preemptions)
	sc.Counter("block_drops", "Switch-ins of per-process-key tenants (naive ILR, VCFR).", &s.BlockDrops)
	sc.Counter("switched_in", "Instructions executed in post-switch (cold) quanta.", &s.SwitchedIn)
	sc.Counter("tenants", "Tenant processes pinned to this core.", &s.TenantsBound)
}

// Registries returns one live registry per tenant, labelled with the core
// the tenant is pinned to and its tenant index (core="0",tenant="1", …):
// the per-tenant dimension of the spine. Core-shared state — the pinned
// core's scheduler counters and the cluster's L2 and DRAM — appears in
// every co-tenant's registry and reads the same shared counters, exactly
// like the shared cache levels always have.
func (cl *Cluster) Registries() []*stats.Registry {
	out := make([]*stats.Registry, len(cl.Tenants))
	for i, p := range cl.Tenants {
		c := cl.CoreOf(i)
		reg := stats.NewLabeled("core", strconv.Itoa(c), "tenant", strconv.Itoa(i))
		p.register(reg)
		cl.stats[c].Register(reg)
		out[i] = reg
	}
	return out
}
