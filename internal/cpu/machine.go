package cpu

import (
	"sync"

	"vcfr/internal/emu"
	"vcfr/internal/mem"
)

// This file recycles the image-independent half of a pipeline. A machine's
// memory hierarchy, predictors, iTLB and DRCs are sized by the Config alone
// and hold nothing of the program once reset, yet building them — about
// 144 KB of cache lines for the default hierarchy — dominated the cost of
// the short runs that fault injections, attack fires and service jobs are
// made of. Release hands that storage to a per-Config sync.Pool and New
// takes from it before allocating.
//
// Fresh and recycled storage start a run through the same reset, so a
// pipeline built on recycled storage is indistinguishable from a fresh one;
// TestRecycledPipelineMatchesFresh holds that. Everything that depends on
// the image — the address space, architectural state, block cache, stack
// bitmap, hooks and registry — is built afresh per pipeline and dropped on
// Release.

// machine is the image-independent storage of one pipeline.
type machine struct {
	hier      *mem.Hierarchy // nil for a pipeline on a borrowed hierarchy
	gsh       *gshare
	btb       *btb
	ras       *ras
	itlb      *itlb
	drc, drc2 *drc // VCFR only; drc2 only with Config.DRC2Entries
}

// newMachine allocates the storage cfg describes, with a private memory
// hierarchy when ownHier is set. cfg must be valid.
func newMachine(cfg Config, ownHier bool) (*machine, error) {
	m := &machine{
		gsh:  newGshare(cfg.GshareBits),
		btb:  newBTB(cfg.BTBEntries, cfg.BTBAssoc),
		ras:  newRAS(cfg.RASDepth),
		itlb: newITLB(cfg.ITLBEntries),
	}
	if ownHier {
		hier, err := mem.NewHierarchy(cfg.Mem)
		if err != nil {
			return nil, err
		}
		m.hier = hier
	}
	if cfg.Mode.HasDRC() {
		m.drc = newDRC(cfg.DRCEntries, cfg.DRCAssoc, cfg.DRCSplit, nil)
		if cfg.DRC2Entries > 0 {
			m.drc2 = newDRC(cfg.DRC2Entries, cfg.DRCAssoc, false, nil)
		}
	}
	return m, nil
}

// reset returns every part to its just-built state and binds the DRCs to
// trans. It is the one start-of-run path for fresh and recycled storage.
func (m *machine) reset(trans emu.Translator) {
	if m.hier != nil {
		m.hier.Reset()
	}
	m.gsh.reset()
	m.btb.reset()
	m.ras.reset()
	m.itlb.reset()
	for _, d := range []*drc{m.drc, m.drc2} {
		if d != nil {
			d.rebind(trans)
			d.stats = DRCStats{}
		}
	}
}

// maxMachinePools bounds the number of distinct Configs with a pool. The
// shipped experiments and job kinds use a few dozen; a Config past the
// bound (say, one more arbitrary DRC size from a request) still runs, its
// storage just is not recycled, so request-chosen configs cannot grow the
// pool table without bound.
const maxMachinePools = 64

var machinePools struct {
	sync.Mutex
	byConfig map[Config]*sync.Pool
}

// machinePool returns cfg's pool, creating it when create is set and the
// table has room; nil otherwise.
func machinePool(cfg Config, create bool) *sync.Pool {
	machinePools.Lock()
	defer machinePools.Unlock()
	pool := machinePools.byConfig[cfg]
	if pool == nil && create && len(machinePools.byConfig) < maxMachinePools {
		if machinePools.byConfig == nil {
			machinePools.byConfig = make(map[Config]*sync.Pool)
		}
		pool = new(sync.Pool)
		machinePools.byConfig[cfg] = pool
	}
	return pool
}

// acquireMachine returns storage for a pipeline under cfg with a private
// hierarchy: recycled when cfg's pool has some, freshly allocated
// otherwise. The caller resets it.
func acquireMachine(cfg Config) (*machine, error) {
	if pool := machinePool(cfg, false); pool != nil {
		if m, _ := pool.Get().(*machine); m != nil {
			return m, nil
		}
	}
	return newMachine(cfg, true)
}

// Release ends the pipeline's life and recycles its image-independent
// storage (memory hierarchy, predictors, iTLB, DRCs) for the next New under
// the same Config. Call it only once every Result the pipeline returned has
// been read: a Result holds copies of the counters, never the storage, but
// the pipeline itself — State, Hierarchy, Registry — reads the recycled
// storage until Release. A released pipeline keeps nothing: running it again
// panics, and a second Release is a no-op. A pipeline on a borrowed
// hierarchy (NewWithHierarchy) never enters the pool: its cache levels are
// shared with other live pipelines.
func (p *Pipeline) Release() {
	m, cfg := p.own, p.cfg
	*p = Pipeline{}
	if m == nil {
		return
	}
	for _, d := range []*drc{m.drc, m.drc2} {
		if d != nil {
			d.trans = nil
		}
	}
	if pool := machinePool(cfg, true); pool != nil {
		pool.Put(m)
	}
}
