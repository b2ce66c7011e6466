package power

import (
	"math"

	"vcfr/internal/cpu"
)

// Area modelling backs the paper's "very small hardware overhead" claim
// (abstract, Sec. IX): the DRC is a few hundred 9-byte entries next to tens
// of kilobytes of L1 and half a megabyte of L2. As with energy, the model is
// CACTI-flavoured and relative: SRAM array area grows slightly
// super-linearly with capacity (peripheral overhead amortizes), and
// associativity adds comparator/mux area.

// SRAMArea returns the area of an array in relative units (µm²-flavoured;
// only ratios are meaningful).
func (m *Model) SRAMArea(bytes, assoc int) float64 {
	if bytes <= 0 {
		return 0
	}
	if assoc < 1 {
		assoc = 1
	}
	cells := float64(bytes) * 8
	// Cell array + peripheral: area ≈ cells^1.02 with a fixed per-way tax.
	return math.Pow(cells, 1.02) * (1 + 0.04*float64(assoc-1))
}

// AreaBreakdown is the on-chip SRAM area of the machine's major structures.
type AreaBreakdown struct {
	IL1   float64
	DL1   float64
	L2    float64
	BPred float64
	BTB   float64
	DRC   float64
	Total float64
}

// DRCOverheadPct returns the DRC's share of total modelled SRAM area.
func (b AreaBreakdown) DRCOverheadPct() float64 {
	if b.Total <= 0 {
		return 0
	}
	return 100 * b.DRC / b.Total
}

// AnalyzeArea computes the structure areas for a machine configuration.
func (m *Model) AnalyzeArea(cfg cpu.Config) AreaBreakdown {
	var b AreaBreakdown
	b.IL1 = m.SRAMArea(cfg.Mem.IL1.Size, cfg.Mem.IL1.Assoc)
	b.DL1 = m.SRAMArea(cfg.Mem.DL1.Size, cfg.Mem.DL1.Assoc)
	b.L2 = m.SRAMArea(cfg.Mem.L2.Size, cfg.Mem.L2.Assoc)
	b.BPred = m.SRAMArea((1<<cfg.GshareBits)/4, 1)
	b.BTB = m.SRAMArea(cfg.BTBEntries*btbEntryBytes, cfg.BTBAssoc)
	if cfg.Mode.HasDRC() {
		b.DRC = m.SRAMArea(cfg.DRCEntries*drcEntryBytes, cfg.DRCAssoc)
		if cfg.DRC2Entries > 0 {
			b.DRC += m.SRAMArea(cfg.DRC2Entries*drcEntryBytes, cfg.DRCAssoc)
		}
	}
	b.Total = b.IL1 + b.DL1 + b.L2 + b.BPred + b.BTB + b.DRC
	return b
}
