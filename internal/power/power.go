// Package power is the McPAT-substitute dynamic power model (Sec. VI-A,
// Fig. 15). It assigns each micro-architectural structure a per-access
// dynamic energy from a CACTI-style analytic formula (energy grows with the
// square root of capacity and mildly with associativity), multiplies by the
// activity counts the pipeline collected, and reports the DRC's share of
// total CPU dynamic energy — the paper's Fig. 15 metric.
//
// Absolute joules are not the point (the paper itself reports percentages);
// the relative sizes are calibrated against published 32 nm SRAM access
// energies so that the DRC — a few hundred 8-byte entries against 32 KB+
// caches — lands in the sub-percent regime the paper measures.
package power

import (
	"math"

	"vcfr/internal/cpu"
)

// Model holds the per-access energy coefficients, in picojoules.
type Model struct {
	// SRAMBase and SRAMScale parameterize the analytic array-access energy:
	// E(bytes, assoc) = SRAMBase + SRAMScale*sqrt(bytes)*(1+AssocPenalty*(assoc-1)).
	SRAMBase     float64
	SRAMScale    float64
	AssocPenalty float64

	DRAMAccess float64 // per DRAM access
	ALUOp      float64 // per executed instruction (exec + bypass)
	Decode     float64 // per decoded instruction
	Regfile    float64 // per instruction (read ports + write port)
}

// DefaultModel returns coefficients calibrated so that a 32 KB 2-way L1
// access costs ~25 pJ, a 512 KB 8-way L2 ~120 pJ, and a 1 KB direct-mapped
// DRC ~3 pJ — consistent with published CACTI 32 nm numbers.
func DefaultModel() *Model {
	return &Model{
		SRAMBase:     1.0,
		SRAMScale:    0.115,
		AssocPenalty: 0.15,
		DRAMAccess:   2000,
		ALUOp:        9.0,
		Decode:       4.0,
		Regfile:      3.5,
	}
}

// SRAMAccess returns the per-access energy (pJ) of an array of the given
// capacity and associativity.
func (m *Model) SRAMAccess(bytes, assoc int) float64 {
	if bytes <= 0 {
		return 0
	}
	if assoc < 1 {
		assoc = 1
	}
	return m.SRAMBase + m.SRAMScale*math.Sqrt(float64(bytes))*
		(1+m.AssocPenalty*float64(assoc-1))
}

// drcEntryBytes is the storage of one DRC entry: two 32-bit addresses plus
// tag bits, rounded to 9 bytes.
const drcEntryBytes = 9

// btbEntryBytes is one BTB entry: tag + two targets.
const btbEntryBytes = 12

// Breakdown is the per-component dynamic energy of one run, in picojoules.
type Breakdown struct {
	IL1   float64
	DL1   float64
	L2    float64
	DRAM  float64
	BPred float64
	DRC   float64
	Core  float64 // decode + regfile + ALU
	Total float64
}

// DRCOverheadPct returns the paper's Fig. 15 metric: DRC dynamic energy as a
// percentage of total CPU dynamic energy (DRAM excluded — Fig. 15 reports
// "percentages of DRC dynamic power over CPU dynamic power").
func (b Breakdown) DRCOverheadPct() float64 {
	cpuTotal := b.Total - b.DRAM
	if cpuTotal <= 0 {
		return 0
	}
	return 100 * b.DRC / cpuTotal
}

// Analyze converts a pipeline result plus its configuration into the energy
// breakdown.
func (m *Model) Analyze(res cpu.Result, cfg cpu.Config) Breakdown {
	var b Breakdown

	il1E := m.SRAMAccess(cfg.Mem.IL1.Size, cfg.Mem.IL1.Assoc)
	dl1E := m.SRAMAccess(cfg.Mem.DL1.Size, cfg.Mem.DL1.Assoc)
	l2E := m.SRAMAccess(cfg.Mem.L2.Size, cfg.Mem.L2.Assoc)
	b.IL1 = il1E * float64(res.IL1.Accesses+res.IL1.PrefetchIssued)
	b.DL1 = dl1E * float64(res.DL1.Accesses)
	b.L2 = l2E * float64(res.L2.Accesses)
	b.DRAM = m.DRAMAccess * float64(res.DRAM.Accesses)

	gshareBytes := (1 << cfg.GshareBits) / 4 // 2-bit counters
	bpredE := m.SRAMAccess(gshareBytes, 1)
	btbE := m.SRAMAccess(cfg.BTBEntries*btbEntryBytes, cfg.BTBAssoc)
	b.BPred = bpredE*float64(res.BPred.CondLookups) + btbE*float64(res.BPred.BTBLookups)

	if cfg.Mode.HasDRC() {
		drcE := m.SRAMAccess(cfg.DRCEntries*drcEntryBytes, cfg.DRCAssoc)
		// Lookups plus installs each cycle the array once.
		b.DRC = drcE * float64(res.DRC.Lookups+res.DRC.Installs)
	}

	insts := float64(res.Stats.Instructions)
	b.Core = insts * (m.Decode + m.Regfile + m.ALUOp)

	b.Total = b.IL1 + b.DL1 + b.L2 + b.DRAM + b.BPred + b.DRC + b.Core
	return b
}
