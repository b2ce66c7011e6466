package cpu

import (
	"context"
	"errors"
	"fmt"

	"vcfr/internal/emu"
	"vcfr/internal/mem"
	"vcfr/internal/program"
)

// This file adds multi-tenant multi-core execution: a deterministic
// time-slice scheduler dispatches processes (tenants) onto cores, each core
// with private L1s, predictors, DRC, and randomization tables, over one
// shared L2 and DRAM. The paper argues this composition is easy precisely
// because VCFR randomizes only the instruction address space — read-only
// state — so nothing a core caches in its private DRC can be invalidated by
// another core (Sec. IV-D). Each process carries its own tables as context;
// what a process pays for is the switch itself, modeled below.
//
// Timing model: the scheduler advances cores round-robin, one quantum per
// turn, through the same block-cached advanceTo path single-core runs use.
// A tenant is pinned to core (tenant index mod cores) for its lifetime — no
// migration (documented simplification). When a core dispatches a different
// tenant than it last ran, the incoming tenant pays the paper's switch-in
// cost: its process-private translation state (DRC hierarchy, iTLB) is
// flushed and refills cold. Shared-cache contention appears through shared
// L2/DRAM capacity and replacement state; port contention is not modelled
// (documented simplification — the paper's single-issue cores rarely
// saturate an L2 port).

// NewWithHierarchy is New with an externally built memory hierarchy, the
// hook multi-core clusters use to share an L2. The rest of the machine is
// allocated afresh and never recycled: Release leaves a borrowed hierarchy,
// which other live pipelines may share, out of the pool.
func NewWithHierarchy(img *program.Image, cfg Config, trans emu.Translator,
	randRA map[uint32]uint32, hier *mem.Hierarchy) (*Pipeline, error) {
	if err := checkNew(cfg, trans); err != nil {
		return nil, err
	}
	m, err := newMachine(cfg, false)
	if err != nil {
		return nil, err
	}
	p := assemble(img, cfg, trans, randRA, m)
	p.hier = hier
	return p, nil
}

// DefaultQuantum is the scheduler time slice in committed instructions when
// SchedConfig.Quantum is zero.
const DefaultQuantum = 10_000

// SchedConfig shapes the cluster's deterministic time-slice scheduler.
type SchedConfig struct {
	// Cores is the number of physical cores (each with private L1s over the
	// shared L2). Zero means one core per process.
	Cores int `json:"cores,omitempty"`
	// Quantum is the time slice in committed instructions; a tenant runs at
	// most this many instructions per dispatch before the core moves to the
	// next tenant pinned to it. Zero means DefaultQuantum.
	Quantum uint64 `json:"quantum,omitempty"`
}

// SchedStats counts one core's scheduling activity.
type SchedStats struct {
	Quanta       uint64 // dispatches (time slices started)
	Switches     uint64 // dispatches that changed tenants (switch-in cost charged)
	Preemptions  uint64 // quanta ended with the tenant still runnable
	BlockDrops   uint64 // switch-ins of naive-ILR/VCFR tenants; the results schema still names it block_drops
	SwitchedIn   uint64 // instructions executed in post-switch (cold) quanta
	TenantsBound uint64 // tenants pinned to this core
}

// ClusterProc describes one tenant process.
type ClusterProc struct {
	Img    *program.Image
	Trans  emu.Translator
	RandRA map[uint32]uint32
	Input  []byte
	Mode   Mode // 0 inherits the cluster config's mode
}

// Cluster schedules tenant processes over a set of cores sharing an L2.
type Cluster struct {
	// Tenants holds one pipeline per process, in ClusterProc order. Tenant i
	// is pinned to core i mod Cores.
	Tenants []*Pipeline

	sched   SchedConfig
	perCore [][]int      // tenant indices pinned to each core
	nextIdx []int        // per-core round-robin cursor into perCore
	lastRun []int        // tenant last dispatched on each core (-1 = none yet)
	stats   []SchedStats // per-core scheduler counters
	errs    []error      // per-tenant fault; a faulted tenant stops, others run on
}

// NewScheduledCluster builds a cluster of sched.Cores cores running
// len(procs) tenant processes. Each entry supplies the image and
// randomization context for that tenant; tenant i is pinned to core
// i mod Cores. More tenants than cores time-share via the quantum scheduler.
func NewScheduledCluster(cfg Config, sched SchedConfig, procs []ClusterProc) (*Cluster, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("cpu: empty cluster")
	}
	if sched.Cores == 0 {
		sched.Cores = len(procs)
	}
	if sched.Cores < 0 {
		return nil, fmt.Errorf("cpu: %d cores", sched.Cores)
	}
	if sched.Quantum == 0 {
		sched.Quantum = DefaultQuantum
	}
	if sched.Cores > len(procs) {
		sched.Cores = len(procs) // idle cores contribute nothing
	}
	hiers, err := mem.NewSharedHierarchy(cfg.Mem, sched.Cores)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		Tenants: make([]*Pipeline, len(procs)),
		sched:   sched,
		perCore: make([][]int, sched.Cores),
		nextIdx: make([]int, sched.Cores),
		lastRun: make([]int, sched.Cores),
		stats:   make([]SchedStats, sched.Cores),
		errs:    make([]error, len(procs)),
	}
	for i, pr := range procs {
		ccfg := cfg
		if pr.Mode != 0 {
			ccfg.Mode = pr.Mode
		}
		core := i % sched.Cores
		p, err := NewWithHierarchy(pr.Img, ccfg, pr.Trans, pr.RandRA, hiers[core])
		if err != nil {
			return nil, fmt.Errorf("cpu: tenant %d: %w", i, err)
		}
		p.SetInput(pr.Input)
		// Each tenant occupies its own physical pages in the shared fabric:
		// a page-granular tag distinguishes equal virtual addresses from
		// different processes in every timed cache (see Pipeline.phys).
		// Tenant 0's tag is zero, so a solo cluster times exactly like a
		// single-core pipeline.
		p.asTag = (uint32(i) * 0x9e3779b9) &^ 0xfff
		cl.Tenants[i] = p
		cl.perCore[core] = append(cl.perCore[core], i)
		cl.stats[core].TenantsBound++
	}
	for c := range cl.lastRun {
		cl.lastRun[c] = -1
	}
	return cl, nil
}

// Cores returns the number of physical cores.
func (cl *Cluster) Cores() int { return cl.sched.Cores }

// CoreOf returns the core tenant t is pinned to.
func (cl *Cluster) CoreOf(t int) int { return t % cl.sched.Cores }

// SchedStats returns the per-core scheduler counters (indexed by core).
func (cl *Cluster) SchedStats() []SchedStats {
	out := make([]SchedStats, len(cl.stats))
	copy(out, cl.stats)
	return out
}

// Errors returns the per-tenant fault slice (nil entries for tenants that
// ran clean). A tenant that faults stops; its co-tenants keep running, and
// its entry here carries the error its result row should record.
func (cl *Cluster) Errors() []error {
	out := make([]error, len(cl.errs))
	copy(out, cl.errs)
	return out
}

// Run schedules every tenant until all halt, fault, or reach maxInsts
// (0 = run to completion). It returns one result per tenant plus the joined
// per-tenant errors (nil when every tenant ran clean). Unlike a single-core
// run, one tenant's fault does not abort the cluster: the faulted tenant
// stops and surviving tenants finish, matching the sweep runner's per-cell
// error-row convention.
func (cl *Cluster) Run(maxInsts uint64) ([]Result, error) {
	return cl.RunContext(context.Background(), maxInsts)
}

// RunContext is Run with mid-run cancellation: the context is polled between
// quanta, so a cancelled or deadline-expired cluster job stops promptly and
// returns the partial per-tenant results collected so far alongside ctx's
// error.
func (cl *Cluster) RunContext(ctx context.Context, maxInsts uint64) ([]Result, error) {
	if maxInsts == 0 {
		maxInsts = emu.DefaultMaxSteps
	}
	for {
		if err := ctx.Err(); err != nil {
			return cl.results(), err
		}
		alive := false
		for c := range cl.perCore {
			if cl.dispatch(c, maxInsts) {
				alive = true
			}
		}
		if !alive {
			break
		}
	}
	return cl.results(), errors.Join(cl.errs...)
}

// runnable reports whether tenant t still has work under maxInsts.
func (cl *Cluster) runnable(t int, maxInsts uint64) bool {
	p := cl.Tenants[t]
	return cl.errs[t] == nil && !p.state.Halted && p.stats.Instructions < maxInsts
}

// dispatch runs one quantum on core c: pick the next runnable tenant
// round-robin, charge the switch-in cost if the core last ran a different
// tenant, and advance it through the block-cached path. Returns false when
// no tenant pinned to c is runnable.
func (cl *Cluster) dispatch(c int, maxInsts uint64) bool {
	tenants := cl.perCore[c]
	t := -1
	for range tenants {
		cand := tenants[cl.nextIdx[c]]
		cl.nextIdx[c] = (cl.nextIdx[c] + 1) % len(tenants)
		if cl.runnable(cand, maxInsts) {
			t = cand
			break
		}
	}
	if t < 0 {
		return false
	}
	p := cl.Tenants[t]
	st := &cl.stats[c]
	st.Quanta++
	switched := false
	if prev := cl.lastRun[c]; prev != t {
		if prev >= 0 {
			// The switch-in cost of Sec. IV-D: the incoming process's
			// private translation state restarts cold.
			st.Switches++
			switched = true
			p.SwitchIn()
			if p.cfg.Mode.Randomized() {
				st.BlockDrops++
			}
		}
		cl.lastRun[c] = t
	}
	target := p.stats.Instructions + cl.sched.Quantum
	if target > maxInsts {
		target = maxInsts
	}
	before := p.stats.Instructions
	running, err := p.advanceTo(target)
	if switched {
		st.SwitchedIn += p.stats.Instructions - before
	}
	if err != nil {
		cl.errs[t] = fmt.Errorf("cpu: tenant %d (core %d): %w", t, c, err)
		return true
	}
	if running && p.stats.Instructions < maxInsts && len(tenants) > 1 {
		st.Preemptions++
	}
	return true
}

func (cl *Cluster) results() []Result {
	out := make([]Result, len(cl.Tenants))
	for i, p := range cl.Tenants {
		p.closeIntervals()
		out[i] = p.result()
	}
	return out
}
