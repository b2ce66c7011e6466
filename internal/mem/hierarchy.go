package mem

import "fmt"

// HierarchyConfig assembles the paper's cache organization (Sec. VI-C):
// 32 KB 2-way IL1 and DL1 with 64-byte lines and 2-cycle latency, a unified
// 512 KB 8-way L2 at 12 cycles, and DDR DRAM behind it.
type HierarchyConfig struct {
	IL1  CacheConfig
	DL1  CacheConfig
	L2   CacheConfig
	DRAM DRAMConfig
}

// DefaultHierarchyConfig returns the paper's machine parameters.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		IL1:  CacheConfig{Name: "il1", Size: 32 << 10, Assoc: 2, LineSize: 64, Latency: 2},
		DL1:  CacheConfig{Name: "dl1", Size: 32 << 10, Assoc: 2, LineSize: 64, Latency: 2},
		L2:   CacheConfig{Name: "l2", Size: 512 << 10, Assoc: 8, LineSize: 64, Latency: 12},
		DRAM: DefaultDRAMConfig(),
	}
}

// Hierarchy is the assembled memory system: split L1s over a unified L2 over
// DRAM. The DRC table walker also reads through the L2 (Sec. IV-B: "DRC
// shares L2 with IL1").
type Hierarchy struct {
	IL1  *Cache
	DL1  *Cache
	L2   *Cache
	DRAM *DRAM
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	dram := NewDRAM(cfg.DRAM)
	l2, err := NewCache(cfg.L2, dram)
	if err != nil {
		return nil, err
	}
	il1, err := NewCache(cfg.IL1, l2)
	if err != nil {
		return nil, err
	}
	dl1, err := NewCache(cfg.DL1, l2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{IL1: il1, DL1: dl1, L2: l2, DRAM: dram}, nil
}

// Reset returns every level to its just-built state (see Cache.Reset), so
// one hierarchy can serve a sequence of unrelated runs. A hierarchy shared
// by a cluster's cores must not be reset while any of them is live.
func (h *Hierarchy) Reset() {
	h.IL1.Reset()
	h.DL1.Reset()
	h.L2.Reset()
	h.DRAM.Reset()
}

// L2Pressure returns the total demand accesses the L2 absorbed — the paper's
// Fig. 3 metric for how L1 inefficiency propagates downstream.
func (h *Hierarchy) L2Pressure() uint64 { return h.L2.Stats().Accesses }

// NewSharedHierarchy builds per-core hierarchies that share one unified L2
// and one DRAM — the multi-core organization of Sec. IV-D ("since our
// approach only randomizes instruction address space, which contains
// read-only data, it can be applied to multi-core or multi-processor based
// systems with ease"). Each core keeps private L1s; the L2 and the
// randomization tables behind it are shared fabric.
func NewSharedHierarchy(cfg HierarchyConfig, cores int) ([]*Hierarchy, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("mem: %d cores", cores)
	}
	dram := NewDRAM(cfg.DRAM)
	l2, err := NewCache(cfg.L2, dram)
	if err != nil {
		return nil, err
	}
	out := make([]*Hierarchy, cores)
	for i := range out {
		il1cfg := cfg.IL1
		il1cfg.Name = fmt.Sprintf("il1.%d", i)
		dl1cfg := cfg.DL1
		dl1cfg.Name = fmt.Sprintf("dl1.%d", i)
		il1, err := NewCache(il1cfg, l2)
		if err != nil {
			return nil, err
		}
		dl1, err := NewCache(dl1cfg, l2)
		if err != nil {
			return nil, err
		}
		out[i] = &Hierarchy{IL1: il1, DL1: dl1, L2: l2, DRAM: dram}
	}
	return out, nil
}
