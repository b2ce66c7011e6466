package results

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtures builds one deterministic envelope per kind. The values are
// synthetic but structurally complete, so the goldens pin every field the
// wire format carries — including the full cpu.Config / cpu.Result shape.
func fixtures() map[string]Envelope {
	cfg := cpu.DefaultConfig(cpu.ModeVCFR)
	var res cpu.Result
	res.Stats.Instructions = 120000
	res.Stats.Cycles = 180000
	res.IL1.Accesses = 120000
	res.IL1.Misses = 420
	res.DRC.Lookups = 9000
	res.DRC.RandLookups = 8800
	res.Out = []byte("ok\n")
	res.Halted = true

	run := Run{
		Workload: "h264ref",
		Mode:     "vcfr",
		Seed:     42,
		Config:   cfg,
		Result:   res,
		// Schema v2 extras: the rewriter statistics for the layout this run
		// executed and a two-window interval series.
		Ilr: &ilr.Stats{
			Instructions:    812,
			CodeRelocs:      340,
			DataRelocs:      12,
			CallsRandomized: 96,
			CallsPlain:      4,
			EntropyBits:     9.67,
			TableBytes:      6496,
		},
		Intervals: []Interval{
			{Instructions: 60000, Cycles: 91000, WindowInstructions: 60000,
				WindowCycles: 91000, IPC: 0.6593, IL1MissRate: 0.0041, DRCMissRate: 0.012,
				DRCStall: 800, FetchStall: 4100},
			{Instructions: 120000, Cycles: 180000, WindowInstructions: 60000,
				WindowCycles: 89000, IPC: 0.6742, IL1MissRate: 0.0029, DRCMissRate: 0.008,
				DRCStall: 610, FetchStall: 3900},
		},
	}
	emulated := Run{
		Workload: "h264ref",
		Mode:     "emulated-ilr",
		Seed:     42,
		Emu: &emu.Stats{
			Instructions: 120000,
			Taken:        14200,
			Calls:        1800,
			Rets:         1800,
			IndirectCF:   1810,
			Loads:        31000,
			Stores:       18000,
			Syscalls:     3,
			HostCycles:   410000,
		},
	}
	failed := Run{Workload: "lbm", Mode: "", Seed: 42, Error: "context deadline exceeded"}

	campaign := Campaign{
		Seed:       42,
		Scale:      1,
		Spread:     8,
		MaxInsts:   25000,
		Injections: 120,
		Bits:       1,
		Workloads:  []string{"bzip2", "sjeng"},
		Modes:      []string{"baseline", "vcfr"},
		Faults:     []string{"branch-target", "opcode"},
		Rows: []CampaignRow{
			{Workload: "bzip2", Mode: "baseline", Fault: "branch-target",
				Outcomes: CampaignCounts{Injected: 60, DetectedIllegal: 41, Crashes: 9,
					SDC: 6, Masked: 3, Hangs: 1}, DetectionRate: 0.6833},
			{Workload: "bzip2", Mode: "vcfr", Fault: "branch-target",
				Outcomes: CampaignCounts{Injected: 60, DetectedUnmappedRPC: 52,
					DetectedIllegal: 5, Crashes: 2, Masked: 1}, DetectionRate: 0.95},
			{Workload: "sjeng", Mode: "vcfr", Fault: "opcode",
				Error: "context deadline exceeded"},
		},
		Totals: CampaignCounts{Injected: 120, DetectedUnmappedRPC: 52,
			DetectedIllegal: 46, Crashes: 11, SDC: 6, Masked: 4, Hangs: 1},
	}
	gadgetRep := GadgetReport{
		Image:    "xalan",
		MaxInsts: 5,
		Total:    2801,
		Unique:   211,
		Census:   map[string]int{"arith": 1357, "bare-ret": 603, "jop": 1314},
		Payloads: map[string]bool{"exfiltrate": true, "print-and-exit": true},
		Randomized: &GadgetRandomized{
			Seed:        7,
			Survivors:   141,
			RemovalRate: 0.9497,
			Payloads:    map[string]bool{"exfiltrate": false, "print-and-exit": false},
		},
	}

	attackRep := Attack{
		Seed:         42,
		Scale:        1,
		Spread:       8,
		MaxInsts:     25000,
		LeakBudget:   16,
		RerandEvery:  5,
		AdvanceInsts: 2000,
		Workloads:    []string{"bzip2"},
		Modes:        []string{"baseline", "naive-ilr", "vcfr"},
		Payloads:     []string{"print-and-exit"},
		Rows: []AttackRow{
			{Workload: "bzip2", Mode: "baseline", Payload: "print-and-exit",
				Static: AttackStatic{PoolSize: 44, Built: true, ChainLen: 9, Outcome: "success"},
				Plain: AttackDisclosure{Success: true, WithinBudget: true, Leaks: 1,
					CodePages: 1, ChainsBuilt: 1, ChainsFired: 1, Outcome: "success"}},
			{Workload: "bzip2", Mode: "naive-ilr", Payload: "print-and-exit",
				Static: AttackStatic{PoolSize: 24, Built: true, ChainLen: 9, Outcome: "success"},
				Plain: AttackDisclosure{Success: true, WithinBudget: true, Leaks: 12,
					CodePages: 6, MapPages: 1, ChainsBuilt: 3, ChainsFired: 3, Outcome: "success"},
				Rerand: &AttackDisclosure{Success: true, Leaks: 77, CodePages: 61,
					MapPages: 16, ChainsBuilt: 9, ChainsFired: 9, Epochs: 15, Outcome: "success"}},
			{Workload: "bzip2", Mode: "vcfr", Payload: "print-and-exit",
				Static: AttackStatic{PoolSize: 41, Built: true, ChainLen: 9, Outcome: "blocked-unmapped-rpc"},
				Plain: AttackDisclosure{Leaks: 1, CodePages: 1, ChainsBuilt: 1,
					ChainsFired: 1, Blocked: 1, Outcome: "blocked-unmapped-rpc"},
				Rerand: &AttackDisclosure{Leaks: 8, CodePages: 8, ChainsBuilt: 1,
					ChainsFired: 1, Blocked: 1, Epochs: 7, Outcome: "blocked-unmapped-rpc"}},
		},
		Summaries: []AttackModeSummary{
			{Mode: "baseline", Cells: 1, StaticSuccesses: 1, Successes: 1, WithinBudget: 1,
				SuccessRate: 1, MeanLeaks: 1},
			{Mode: "naive-ilr", Cells: 1, StaticSuccesses: 1, Successes: 1, WithinBudget: 1,
				SuccessRate: 1, MeanLeaks: 12, RerandSuccesses: 1, MeanRerandLeaks: 77},
			{Mode: "vcfr", Cells: 1},
		},
		Totals: AttackCounts{ChainsBuilt: 16, ChainsFired: 16, Successes: 8, BlockedRPC: 2,
			NoEffect: 6, Leaks: 99, CodePages: 77, MapPages: 17, Rerandomizations: 22},
	}

	multicoreRep := Multicore{
		Seed:      42,
		Scale:     1,
		Spread:    8,
		MaxInsts:  25000,
		Quantum:   10000,
		Workloads: []string{"bzip2", "sjeng"},
		Modes:     []string{"baseline", "naive-ilr", "vcfr"},
		Cells:     []string{"2c2t", "1c2t"},
		Rows: []MulticoreRow{
			{Cell: "solo", Cores: 1, Tenants: 1, Mode: "vcfr", Tenant: 0, Core: 0,
				Workload: "bzip2", Epoch: 0, Seed: 811, Instructions: 25000,
				Cycles: 38000, IPC: 0.6579, DRCMissRate: 0.012},
			{Cell: "2c2t", Cores: 2, Tenants: 2, Mode: "vcfr", Tenant: 0, Core: 0,
				Workload: "bzip2", Epoch: 0, Seed: 811, Instructions: 25000,
				Cycles: 39100, IPC: 0.6394, SoloIPC: 0.6579, Slowdown: 1.0289,
				DRCMissRate: 0.013},
			{Cell: "1c2t", Cores: 1, Tenants: 2, Mode: "vcfr", Tenant: 1, Core: 0,
				Workload: "sjeng", Epoch: 0, Seed: 913, Instructions: 25000,
				Cycles: 40800, IPC: 0.6127, SoloIPC: 0.648, Slowdown: 1.0576,
				DRCFlushes: 4, DRCMissRate: 0.019},
			{Cell: "1c2t", Cores: 1, Tenants: 2, Mode: "vcfr", Tenant: 0, Core: 0,
				Workload: "bzip2", Epoch: 0, Seed: 811,
				Error: "context deadline exceeded"},
		},
		Summaries: []MulticoreModeSummary{
			{Mode: "baseline", Rows: 4, MeanSlowdown: 1.021, MaxSlowdown: 1.044, Switches: 8},
			{Mode: "naive-ilr", Rows: 4, MeanSlowdown: 1.089, MaxSlowdown: 1.131, Switches: 8},
			{Mode: "vcfr", Rows: 4, MeanSlowdown: 1.034, MaxSlowdown: 1.058,
				Switches: 8, DRCFlushes: 8},
		},
		Totals: []MulticoreTotal{
			{Cell: "2c2t", Mode: "vcfr", Instructions: 50000, Cycles: 39500,
				IPC: 1.2658, Quanta: 6, L2Accesses: 2900, L2MissRate: 0.21,
				MeanSlowdown: 1.0301},
			{Cell: "1c2t", Mode: "vcfr", Instructions: 50000, Cycles: 81400,
				IPC: 0.6143, Quanta: 6, Switches: 5, Preemptions: 4, BlockDrops: 5,
				DRCFlushes: 5, L2Accesses: 3100, L2MissRate: 0.24, MeanSlowdown: 1.0511},
		},
	}

	return map[string]Envelope{
		"run":       NewRun(run, emulated),
		"sweep":     NewSweep([]Run{run, failed}),
		"campaign":  NewCampaign(campaign),
		"gadget":    NewGadget(gadgetRep),
		"attack":    NewAttack(attackRep),
		"multicore": NewMulticore(multicoreRep),
	}
}

// TestGolden pins the wire format byte for byte. Any change to the schema —
// field set, names, ordering, indentation — must bump SchemaVersion and
// regenerate these files with -update.
func TestGolden(t *testing.T) {
	for name, env := range fixtures() {
		t.Run(name, func(t *testing.T) {
			got, err := Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestRoundTrip proves Marshal/Unmarshal are inverses and the schema gate
// rejects foreign versions and kinds, the retired trace kind among them.
func TestRoundTrip(t *testing.T) {
	for name, env := range fixtures() {
		b, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b2, err := Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Errorf("%s: round trip not stable", name)
		}
	}
	if _, err := Unmarshal([]byte(`{"schema_version": 999, "kind": "run"}`)); err == nil {
		t.Error("foreign schema version accepted")
	}
	for _, kind := range []string{"trace", "replay", ""} {
		if _, err := Unmarshal([]byte(`{"schema_version": 5, "kind": "` + kind + `"}`)); err == nil {
			t.Errorf("kind %q accepted", kind)
		}
	}
}

// TestSweepPartial locks the partial-derivation rule: any error row marks
// the sweep partial, none means complete.
func TestSweepPartial(t *testing.T) {
	ok := NewSweep([]Run{{Workload: "a"}})
	if ok.Sweep.Partial {
		t.Error("clean sweep marked partial")
	}
	bad := NewSweep([]Run{{Workload: "a"}, {Workload: "b", Error: "boom"}})
	if !bad.Sweep.Partial {
		t.Error("sweep with error row not marked partial")
	}
}

// TestAttackPartial locks the same derivation rule for attack campaigns.
func TestAttackPartial(t *testing.T) {
	ok := NewAttack(Attack{Rows: []AttackRow{{Workload: "a"}}})
	if ok.Attack.Partial {
		t.Error("clean attack campaign marked partial")
	}
	bad := NewAttack(Attack{Rows: []AttackRow{{Workload: "a"}, {Workload: "b", Error: "boom"}}})
	if !bad.Attack.Partial {
		t.Error("attack campaign with error row not marked partial")
	}
}

// TestMulticorePartial locks the same derivation rule for multicore
// campaigns.
func TestMulticorePartial(t *testing.T) {
	ok := NewMulticore(Multicore{Rows: []MulticoreRow{{Workload: "a"}}})
	if ok.Multicore.Partial {
		t.Error("clean multicore campaign marked partial")
	}
	bad := NewMulticore(Multicore{Rows: []MulticoreRow{{Workload: "a"}, {Workload: "b", Error: "boom"}}})
	if !bad.Multicore.Partial {
		t.Error("multicore campaign with error row not marked partial")
	}
}

// TestCampaignPartial locks the same derivation rule for campaigns.
func TestCampaignPartial(t *testing.T) {
	ok := NewCampaign(Campaign{Rows: []CampaignRow{{Workload: "a"}}})
	if ok.Campaign.Partial {
		t.Error("clean campaign marked partial")
	}
	bad := NewCampaign(Campaign{Rows: []CampaignRow{{Workload: "a"}, {Workload: "b", Error: "boom"}}})
	if !bad.Campaign.Partial {
		t.Error("campaign with error row not marked partial")
	}
}
