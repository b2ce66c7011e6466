package mem

// DRAMConfig describes a DDR-style main memory in CPU cycles (the paper
// drives DRAMSim2 from a 1.6 GHz core clock; these defaults approximate
// DDR3-1333 timings seen from that clock).
type DRAMConfig struct {
	Ranks        int
	BanksPerRank int
	RowBytes     int // row-buffer (page) size per bank

	// Latencies in CPU cycles.
	TCAS      int // column access on an open, matching row
	TRCD      int // activate (row open)
	TRP       int // precharge (row close)
	BusAndCtl int // fixed controller + bus transfer overhead

	// Refresh: every RefreshEvery accesses, one access additionally pays
	// TRFC (a deterministic amortization of periodic refresh stalls).
	RefreshEvery uint64
	TRFC         int
}

// DefaultDRAMConfig returns the calibrated DDR3-like configuration.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Ranks:        2,
		BanksPerRank: 8,
		RowBytes:     8192,
		TCAS:         22,
		TRCD:         22,
		TRP:          22,
		BusAndCtl:    28,
		RefreshEvery: 620,
		TRFC:         170,
	}
}

// DRAMStats counts row-buffer outcomes.
type DRAMStats struct {
	Accesses     uint64
	RowHits      uint64 // open page, matching row
	RowConflicts uint64 // open page, different row (precharge + activate)
	RowMisses    uint64 // closed page (activate)
	Refreshes    uint64
}

// RowHitRate returns row-buffer hits per access.
func (s DRAMStats) RowHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

// DRAM is the open-page DDR model terminating the hierarchy.
type DRAM struct {
	cfg   DRAMConfig
	banks []bankState
	stats DRAMStats
}

type bankState struct {
	open bool
	row  uint32
}

// NewDRAM builds a DRAM with cfg (zero-value fields take defaults).
func NewDRAM(cfg DRAMConfig) *DRAM {
	def := DefaultDRAMConfig()
	if cfg.Ranks <= 0 {
		cfg.Ranks = def.Ranks
	}
	if cfg.BanksPerRank <= 0 {
		cfg.BanksPerRank = def.BanksPerRank
	}
	if cfg.RowBytes <= 0 {
		cfg.RowBytes = def.RowBytes
	}
	if cfg.TCAS <= 0 {
		cfg.TCAS = def.TCAS
	}
	if cfg.TRCD <= 0 {
		cfg.TRCD = def.TRCD
	}
	if cfg.TRP <= 0 {
		cfg.TRP = def.TRP
	}
	if cfg.BusAndCtl <= 0 {
		cfg.BusAndCtl = def.BusAndCtl
	}
	if cfg.RefreshEvery == 0 {
		cfg.RefreshEvery = def.RefreshEvery
	}
	if cfg.TRFC <= 0 {
		cfg.TRFC = def.TRFC
	}
	return &DRAM{
		cfg:   cfg,
		banks: make([]bankState, cfg.Ranks*cfg.BanksPerRank),
	}
}

// Reset closes every row buffer and zeroes the counters, returning the DRAM
// to its just-built state.
func (d *DRAM) Reset() {
	clear(d.banks)
	d.stats = DRAMStats{}
}

// Name implements Level.
func (d *DRAM) Name() string { return "dram" }

// Stats returns a copy of the counters.
func (d *DRAM) Stats() DRAMStats { return d.stats }

// Access implements Level: bank-interleaved open-page access.
func (d *DRAM) Access(addr uint32, write bool) int {
	d.stats.Accesses++
	nbanks := uint32(len(d.banks))
	rowBytes := uint32(d.cfg.RowBytes)
	// Bank interleave on row-granularity address bits: consecutive rows map
	// to consecutive banks, the usual open-page-friendly mapping.
	rowAddr := addr / rowBytes
	bank := rowAddr % nbanks
	row := rowAddr / nbanks

	lat := d.cfg.BusAndCtl
	b := &d.banks[bank]
	switch {
	case b.open && b.row == row:
		d.stats.RowHits++
		lat += d.cfg.TCAS
	case b.open:
		d.stats.RowConflicts++
		lat += d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
		b.row = row
	default:
		d.stats.RowMisses++
		lat += d.cfg.TRCD + d.cfg.TCAS
		b.open, b.row = true, row
	}
	if d.stats.Accesses%d.cfg.RefreshEvery == 0 {
		d.stats.Refreshes++
		lat += d.cfg.TRFC
	}
	return lat
}
