// Package results defines the one versioned wire format every VCFR entry
// point speaks: the vcfrd service, vcfrsim -stats-json, experiments
// -stats-json, and gadgetscan -json all serialize through the Envelope
// below. One schema, one marshal path — a consumer that parses the output of
// any producer parses them all, and the golden-file tests in this package
// pin the byte-level format so accidental drift fails CI instead of breaking
// downstream tooling.
package results

import (
	"encoding/json"
	"fmt"
	"io"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/stats"
)

// SchemaVersion is the wire-format version carried by every Envelope. Bump
// it on any change to the field set, field names, or number formatting of
// the types below, and regenerate the golden files (go test ./internal/results
// -update).
//
// Version history:
//
//	1 — initial run/sweep/trace envelopes.
//	2 — run rows gained `intervals` (per-window time series from
//	    cpu.Config.SampleEvery sampling), `ilr` (the rewriter statistics
//	    that were previously only in CLI text output), and `emu` (software
//	    emulation counters, set by emulated-ILR runs); cpu.Config gained
//	    SampleEvery. Purely additive: every v1 document is a valid v2
//	    document with those fields absent, and Unmarshal accepts both.
//	3 — two new envelope kinds: `campaign` (fault-injection detection
//	    coverage, internal/fault) and `gadget` (the gadgetscan report,
//	    previously unversioned text-only output). Purely additive: run,
//	    sweep, and trace documents are unchanged, and Unmarshal accepts
//	    1..3.
//	4 — new envelope kind `attack` (the adversary-in-the-loop evaluation,
//	    internal/attack: static chain building, JIT-ROP disclosure work
//	    factors, and re-randomization racing). Purely additive: all prior
//	    kinds are unchanged, and Unmarshal accepts 1..4.
//	5 — new envelope kind `multicore` (the multi-tenant interference
//	    campaign, internal/multicore: cores × tenants × mode cells with
//	    per-tenant rows, per-cell cluster totals, and scheduler switch
//	    counters). Purely additive: all prior kinds are unchanged, and
//	    Unmarshal accepts 1..5.
//
// The `trace` kind (a captured trace file's description, versions 1..5) is
// no longer produced, and Unmarshal refuses it like any unknown kind. No
// document a remaining producer emits changed, so the version stayed 5.
const SchemaVersion = 5

// minSchemaVersion is the oldest version Unmarshal still accepts; every
// version in [minSchemaVersion, SchemaVersion] is additive-compatible.
const minSchemaVersion = 1

// Kind discriminates what an Envelope carries.
type Kind string

// Envelope kinds.
const (
	// KindRun is one or more single simulations of one workload (one row
	// per architecture mode), sharing a layout seed and timing config.
	KindRun Kind = "run"
	// KindSweep is a full stats sweep: every workload under every mode,
	// with per-cell derived seeds.
	KindSweep Kind = "sweep"
	// KindCampaign is a fault-injection campaign's detection-coverage
	// table (schema v3; see internal/fault).
	KindCampaign Kind = "campaign"
	// KindGadget is a gadget-pool scan report (schema v3; the versioned
	// form of cmd/gadgetscan's output).
	KindGadget Kind = "gadget"
	// KindAttack is an attack campaign's work-factor table (schema v4; see
	// internal/attack).
	KindAttack Kind = "attack"
	// KindMulticore is a multi-tenant interference campaign's table (schema
	// v5; see internal/multicore).
	KindMulticore Kind = "multicore"
)

// Envelope is the single top-level object every producer emits. Exactly one
// of Run, Sweep, Campaign, Gadget, Attack, Multicore is populated,
// selected by Kind.
type Envelope struct {
	SchemaVersion int           `json:"schema_version"`
	Kind          Kind          `json:"kind"`
	Run           []Run         `json:"run,omitempty"`
	Sweep         *Sweep        `json:"sweep,omitempty"`
	Campaign      *Campaign     `json:"campaign,omitempty"`
	Gadget        *GadgetReport `json:"gadget,omitempty"`
	Attack        *Attack       `json:"attack,omitempty"`
	Multicore     *Multicore    `json:"multicore,omitempty"`
}

// Run is one (workload, mode) simulation's complete output: the exact
// machine configuration that produced it plus the full Result with every
// cache, DRAM, DRC, and predictor counter. A failed or cancelled run carries
// its error in Error and a zero Result.
type Run struct {
	Workload string     `json:"workload"`
	Mode     string     `json:"mode"`
	Seed     int64      `json:"seed"`
	Config   cpu.Config `json:"config"`
	Result   cpu.Result `json:"result"`
	// Ilr carries the rewriter statistics for the layout this run executed
	// (schema v2; absent under ModeBaseline, which runs the original binary).
	Ilr *ilr.Stats `json:"ilr,omitempty"`
	// Emu carries software-emulation counters for emulated-ILR runs
	// (schema v2; absent for pipeline-driven runs).
	Emu *emu.Stats `json:"emu,omitempty"`
	// Intervals is the per-window time series sampled every
	// cpu.Config.SampleEvery instructions (schema v2; absent when sampling
	// is off).
	Intervals []Interval `json:"intervals,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// Failed reports whether the run errored instead of completing.
func (r Run) Failed() bool { return r.Error != "" }

// Sweep is a multi-workload stats sweep. Partial is set when any row failed
// or the sweep was cancelled mid-flight: the rows that did finish are
// present and valid, failed cells appear as error rows.
type Sweep struct {
	Rows    []Run `json:"rows"`
	Partial bool  `json:"partial,omitempty"`
}

// NewRun wraps single-simulation rows in a versioned envelope.
func NewRun(rows ...Run) Envelope {
	return Envelope{SchemaVersion: SchemaVersion, Kind: KindRun, Run: rows}
}

// NewSweep wraps a stats sweep in a versioned envelope. Partial is derived
// from the rows themselves: any error row marks the sweep partial.
func NewSweep(rows []Run) Envelope {
	s := &Sweep{Rows: rows}
	for _, r := range rows {
		if r.Failed() {
			s.Partial = true
			break
		}
	}
	return Envelope{SchemaVersion: SchemaVersion, Kind: KindSweep, Sweep: s}
}

// Campaign is one fault-injection campaign's detection-coverage table
// (schema v3). The header pins every input that shaped the campaign, so a
// consumer can re-run it bit-identically; Rows come in the fixed
// (workload, mode, fault) order the campaign planner emits.
type Campaign struct {
	Seed       int64    `json:"seed"`
	Scale      int      `json:"scale"`
	Spread     int      `json:"spread"`
	MaxInsts   uint64   `json:"max_insts"`  // reference-run instruction cap
	Injections int      `json:"injections"` // per (workload, mode) cell
	Bits       int      `json:"bits"`       // bits flipped per injection
	Workloads  []string `json:"workloads"`
	Modes      []string `json:"modes"`
	Faults     []string `json:"faults"` // fault-model kinds injected

	Rows   []CampaignRow  `json:"rows"`
	Totals CampaignCounts `json:"totals"`
	// Partial is set when any row failed or the campaign was cancelled
	// mid-flight; finished rows keep their counts.
	Partial bool `json:"partial,omitempty"`
}

// CampaignRow is one (workload, mode, fault kind) line of the coverage
// table.
type CampaignRow struct {
	Workload      string         `json:"workload"`
	Mode          string         `json:"mode"`
	Fault         string         `json:"fault"`
	Outcomes      CampaignCounts `json:"outcomes"`
	DetectionRate float64        `json:"detection_rate"`
	Error         string         `json:"error,omitempty"`
}

// CampaignCounts is the outcome-taxonomy histogram of a row (or of the
// whole campaign, in Campaign.Totals).
type CampaignCounts struct {
	Injected            uint64 `json:"injected"`
	DetectedUnmappedRPC uint64 `json:"detected_unmapped_rpc"`
	DetectedIllegal     uint64 `json:"detected_illegal_instruction"`
	Crashes             uint64 `json:"crashes"`
	SDC                 uint64 `json:"silent_data_corruption"`
	Masked              uint64 `json:"masked"`
	Hangs               uint64 `json:"hangs"`
}

// NewCampaign wraps a coverage table in a versioned envelope. Partial is
// derived from the rows: any error row marks the campaign partial.
func NewCampaign(c Campaign) Envelope {
	for _, r := range c.Rows {
		if r.Error != "" {
			c.Partial = true
			break
		}
	}
	return Envelope{SchemaVersion: SchemaVersion, Kind: KindCampaign, Campaign: &c}
}

// GadgetReport is a gadget-pool scan (schema v3): the pool census of one
// image and which payload templates it supports, plus — when the scan also
// randomized — the surviving pool.
type GadgetReport struct {
	Image    string `json:"image"`
	MaxInsts int    `json:"max_insts"` // max gadget body length scanned for
	Total    int    `json:"total"`
	Unique   int    `json:"unique"`
	// Census counts gadgets per capability kind; Payloads reports which
	// attack templates assemble from the pool. Both marshal with sorted
	// keys (encoding/json), keeping the wire form deterministic.
	Census     map[string]int    `json:"census"`
	Payloads   map[string]bool   `json:"payloads"`
	Randomized *GadgetRandomized `json:"randomized,omitempty"`
}

// GadgetRandomized describes the pool surviving one randomized layout.
type GadgetRandomized struct {
	Seed        int64           `json:"seed"`
	Survivors   int             `json:"survivors"`
	RemovalRate float64         `json:"removal_rate"`
	Payloads    map[string]bool `json:"payloads"`
}

// NewGadget wraps a gadget scan in a versioned envelope.
func NewGadget(g GadgetReport) Envelope {
	return Envelope{SchemaVersion: SchemaVersion, Kind: KindGadget, Gadget: &g}
}

// Attack is one adversary-in-the-loop campaign's work-factor table (schema
// v4). The header pins every input that shaped the campaign, so a consumer
// can re-run it bit-identically; Rows come in the fixed (workload, mode,
// payload) order the campaign planner emits.
type Attack struct {
	Seed         int64    `json:"seed"`
	Scale        int      `json:"scale"`
	Spread       int      `json:"spread"`
	MaxInsts     uint64   `json:"max_insts"`     // per-fired-run instruction cap
	LeakBudget   int      `json:"leak_budget"`   // canonical disclosure allowance B0
	MaxLeaks     int      `json:"max_leaks"`     // exploration horizon; 0 = per-cell auto
	RerandEvery  int      `json:"rerand_every"`  // re-randomization period, leak ops
	AdvanceInsts uint64   `json:"advance_insts"` // victim instructions per leak op
	Workloads    []string `json:"workloads"`
	Modes        []string `json:"modes"`
	Payloads     []string `json:"payloads"`

	Rows      []AttackRow         `json:"rows"`
	Summaries []AttackModeSummary `json:"summaries"`
	Totals    AttackCounts        `json:"totals"`
	// Partial is set when any row failed or the campaign was cancelled
	// mid-flight; finished rows keep their results.
	Partial bool `json:"partial,omitempty"`
}

// AttackRow is one (workload, mode, payload) cell of the work-factor table.
type AttackRow struct {
	Workload string           `json:"workload"`
	Mode     string           `json:"mode"`
	Payload  string           `json:"payload"`
	Static   AttackStatic     `json:"static"`
	Plain    AttackDisclosure `json:"plain"`
	// Rerand is the disclosure arm raced against periodic re-randomization;
	// absent under baseline.
	Rerand *AttackDisclosure `json:"rerand,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// AttackStatic is a cell's full-knowledge phase: the pool an attacker with
// the program binary compiles against before leaking anything.
type AttackStatic struct {
	PoolSize int    `json:"pool_size"`
	Built    bool   `json:"built"`
	ChainLen int    `json:"chain_len"`
	Outcome  string `json:"outcome"`
}

// AttackDisclosure is one JIT-ROP arm's work factor: the leak ops spent and
// what they bought.
type AttackDisclosure struct {
	Success      bool   `json:"success"`
	WithinBudget bool   `json:"within_budget"`
	Leaks        int    `json:"leaks"`
	CodePages    int    `json:"code_pages"`
	MapPages     int    `json:"map_pages"`
	ChainsBuilt  int    `json:"chains_built"`
	ChainsFired  int    `json:"chains_fired"`
	Blocked      int    `json:"blocked"`
	Epochs       int    `json:"epochs"`
	Outcome      string `json:"outcome"`
}

// AttackModeSummary is one mode's aggregate over the campaign's cells — the
// ordering the paper's security claim ranks (baseline > naive-ILR >= VCFR).
type AttackModeSummary struct {
	Mode            string  `json:"mode"`
	Cells           int     `json:"cells"`
	StaticSuccesses int     `json:"static_successes"`
	Successes       int     `json:"successes"`
	WithinBudget    int     `json:"within_budget"`
	SuccessRate     float64 `json:"success_rate"`
	MeanLeaks       float64 `json:"mean_leaks"`
	RerandSuccesses int     `json:"rerand_successes"`
	MeanRerandLeaks float64 `json:"mean_rerand_leaks"`
}

// AttackCounts is the attacker-activity histogram of the whole campaign.
type AttackCounts struct {
	ChainsBuilt      uint64 `json:"chains_built"`
	ChainsFired      uint64 `json:"chains_fired"`
	Successes        uint64 `json:"successes"`
	BlockedRPC       uint64 `json:"blocked_unmapped_rpc"`
	BlockedIllegal   uint64 `json:"blocked_illegal_instruction"`
	Crashes          uint64 `json:"crashes"`
	NoEffect         uint64 `json:"no_effect"`
	Leaks            uint64 `json:"leaks"`
	CodePages        uint64 `json:"code_pages"`
	MapPages         uint64 `json:"map_pages"`
	Rerandomizations uint64 `json:"rerandomizations"`
}

// NewAttack wraps a work-factor table in a versioned envelope. Partial is
// derived from the rows: any error row marks the campaign partial.
func NewAttack(a Attack) Envelope {
	for _, r := range a.Rows {
		if r.Error != "" {
			a.Partial = true
			break
		}
	}
	return Envelope{SchemaVersion: SchemaVersion, Kind: KindAttack, Attack: &a}
}

// Multicore is one multi-tenant interference campaign's table (schema v5).
// The header pins every input that shaped the campaign, so a consumer can
// re-run it bit-identically; Rows come in the fixed (cell, mode, tenant)
// order the campaign planner emits, one row per tenant process plus a solo
// reference row per (workload instance, mode).
type Multicore struct {
	Seed     int64  `json:"seed"`
	Scale    int    `json:"scale"`
	Spread   int    `json:"spread"`
	MaxInsts uint64 `json:"max_insts"` // per-tenant instruction cap
	Quantum  uint64 `json:"quantum"`   // scheduler time slice, instructions
	// Workloads is the tenant pool: tenant i of a cell runs workload
	// instance i%len(Workloads), epoch i/len(Workloads).
	Workloads []string `json:"workloads"`
	Modes     []string `json:"modes"`
	Cells     []string `json:"cells"` // cores×tenants grid, e.g. "2c4t"

	Rows      []MulticoreRow         `json:"rows"`
	Summaries []MulticoreModeSummary `json:"summaries"`
	Totals    []MulticoreTotal       `json:"totals"` // one per (cell, mode), plan order
	// Partial is set when any row failed or the campaign was cancelled
	// mid-flight; finished rows keep their counters.
	Partial bool `json:"partial,omitempty"`
}

// MulticoreRow is one tenant process of one (cell, mode) cluster run. Solo
// reference rows carry cell "solo" and leave the interference fields zero.
type MulticoreRow struct {
	Cell         string  `json:"cell"`
	Cores        int     `json:"cores"`
	Tenants      int     `json:"tenants"`
	Mode         string  `json:"mode"`
	Tenant       int     `json:"tenant"` // tenant index within the cell
	Core         int     `json:"core"`   // core the tenant is pinned to
	Workload     string  `json:"workload"`
	Epoch        int     `json:"epoch"` // randomization epoch of this instance
	Seed         int64   `json:"seed"`  // derived layout seed of this instance
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	// SoloIPC is this workload instance's IPC alone on one core under the
	// same mode; Slowdown is SoloIPC/IPC — the co-run degradation factor
	// (1.0 = no interference). Zero on the solo reference rows themselves.
	SoloIPC     float64 `json:"solo_ipc,omitempty"`
	Slowdown    float64 `json:"slowdown,omitempty"`
	DRCFlushes  uint64  `json:"drc_flushes"`
	DRCMissRate float64 `json:"drc_miss_rate"`
	Error       string  `json:"error,omitempty"`
}

// MulticoreTotal aggregates one (cell, mode) cluster run: makespan timing,
// scheduler activity, and the shared-L2 view all tenants contend in.
type MulticoreTotal struct {
	Cell         string  `json:"cell"`
	Mode         string  `json:"mode"`
	Instructions uint64  `json:"instructions"` // sum over tenants
	Cycles       uint64  `json:"cycles"`       // makespan: max core cycles
	IPC          float64 `json:"ipc"`          // throughput: instructions/makespan
	Quanta       uint64  `json:"quanta"`
	Switches     uint64  `json:"switches"`
	Preemptions  uint64  `json:"preemptions"`
	BlockDrops   uint64  `json:"block_drops"`
	DRCFlushes   uint64  `json:"drc_flushes"`
	L2Accesses   uint64  `json:"l2_accesses"`
	L2MissRate   float64 `json:"l2_miss_rate"`
	MeanSlowdown float64 `json:"mean_slowdown,omitempty"` // geomean over tenants
}

// MulticoreModeSummary is one mode's aggregate over every co-run cell — the
// ordering the paper's consolidation claim ranks: VCFR's co-run degradation
// tracks baseline while naive ILR pays extra for its scattered footprint in
// the shared L2.
type MulticoreModeSummary struct {
	Mode         string  `json:"mode"`
	Rows         int     `json:"rows"` // co-run tenant rows aggregated
	MeanSlowdown float64 `json:"mean_slowdown"`
	MaxSlowdown  float64 `json:"max_slowdown"`
	Switches     uint64  `json:"switches"`
	DRCFlushes   uint64  `json:"drc_flushes"`
}

// NewMulticore wraps an interference table in a versioned envelope. Partial
// is derived from the rows: any error row marks the campaign partial.
func NewMulticore(m Multicore) Envelope {
	for _, r := range m.Rows {
		if r.Error != "" {
			m.Partial = true
			break
		}
	}
	return Envelope{SchemaVersion: SchemaVersion, Kind: KindMulticore, Multicore: &m}
}

// Marshal is the one serialization path: two-space-indented JSON with a
// trailing newline. Every producer must emit exactly these bytes, which is
// what makes service responses and CLI output byte-comparable.
func Marshal(e Envelope) ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return append(b, '\n'), nil
}

// Write marshals e and writes it to w.
func Write(w io.Writer, e Envelope) error {
	b, err := Marshal(e)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Unmarshal parses an envelope and rejects schema versions and kinds this
// package does not understand.
func Unmarshal(data []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return Envelope{}, fmt.Errorf("results: %w", err)
	}
	if e.SchemaVersion < minSchemaVersion || e.SchemaVersion > SchemaVersion {
		return Envelope{}, fmt.Errorf("results: schema version %d, want %d..%d",
			e.SchemaVersion, minSchemaVersion, SchemaVersion)
	}
	switch e.Kind {
	case KindRun, KindSweep, KindCampaign, KindGadget, KindAttack, KindMulticore:
		return e, nil
	}
	return Envelope{}, fmt.Errorf("results: unknown envelope kind %q", e.Kind)
}

// Interval is one sampling window of a run: cumulative counters at the
// window's end plus the per-window rates the paper's phase plots need. It is
// derived purely from spine snapshots (MakeIntervals) — no field here is
// copied from a stat struct by hand.
type Interval struct {
	// Instructions and Cycles are cumulative at the window's end.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	// WindowInstructions/WindowCycles are this window's increments.
	WindowInstructions uint64 `json:"window_instructions"`
	WindowCycles       uint64 `json:"window_cycles"`
	// IPC is the window's instructions per cycle.
	IPC float64 `json:"ipc"`
	// IL1MissRate and DL1MissRate are the window's demand miss rates.
	IL1MissRate float64 `json:"il1_miss_rate"`
	DL1MissRate float64 `json:"dl1_miss_rate"`
	// DRCMissRate is the window's DRC miss rate (0 outside VCFR).
	DRCMissRate float64 `json:"drc_miss_rate"`
	// DRCStall and FetchStall are the window's stall-cycle increments.
	DRCStall   uint64 `json:"drc_stall"`
	FetchStall uint64 `json:"fetch_stall"`
}

// MakeIntervals turns a run's cumulative spine snapshots
// (cpu.Result.Intervals) into the per-window wire series. The first window
// is measured against zeroed counters; a registry missing a name (no drc.*
// outside VCFR) contributes zeros for it.
func MakeIntervals(snaps []stats.Snapshot) []Interval {
	if len(snaps) == 0 {
		return nil
	}
	get := func(s stats.Snapshot, key string) uint64 {
		v, _ := s.Uint(key)
		return v
	}
	rate := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	out := make([]Interval, len(snaps))
	var prev stats.Snapshot
	havePrev := false
	for i, s := range snaps {
		win := s
		if havePrev {
			d, err := s.Delta(prev)
			if err == nil {
				win = d
			}
		}
		insts := get(win, "cpu.instructions")
		cycles := get(win, "cpu.cycles")
		out[i] = Interval{
			Instructions:       get(s, "cpu.instructions"),
			Cycles:             get(s, "cpu.cycles"),
			WindowInstructions: insts,
			WindowCycles:       cycles,
			IPC:                rate(insts, cycles),
			IL1MissRate:        rate(get(win, "mem.il1.misses"), get(win, "mem.il1.accesses")),
			DL1MissRate:        rate(get(win, "mem.dl1.misses"), get(win, "mem.dl1.accesses")),
			DRCMissRate:        rate(get(win, "drc.misses"), get(win, "drc.lookups")),
			DRCStall:           get(win, "cpu.stall.drc"),
			FetchStall:         get(win, "cpu.stall.fetch"),
		}
		prev, havePrev = s, true
	}
	return out
}
