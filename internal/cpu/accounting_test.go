package cpu_test

import (
	"fmt"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// TestStallAccountingIdentity holds the width-1 cycle identity — every
// cycle issues an instruction or is charged to exactly one of the four stall
// accounts — with DRCStall a sub-account of ControlStall and SyscallCycles
// one of ExecStall, over the sweep's workloads (SPEC analogs and lifted
// binaries) in every mode, under the DRC ablation configurations (which
// route DRC stalls through the PredictOnRPC tax, the split buffers, the
// level-2 buffer and context-switch flushes), with and without the block
// cache.
func TestStallAccountingIdentity(t *testing.T) {
	const cap = 50_000
	configs := []struct {
		name   string
		mutate func(*cpu.Config)
	}{
		{"default", func(*cpu.Config) {}},
		{"predict-on-rpc", func(c *cpu.Config) { c.PredictOnRPC = true }},
		{"drc-split", func(c *cpu.Config) { c.DRCSplit = true }},
		{"drc64+drc2-1024", func(c *cpu.Config) { c.DRCEntries, c.DRC2Entries = 64, 1024 }},
		{"drc64-4way", func(c *cpu.Config) { c.DRCEntries, c.DRCAssoc = 64, 4 }},
		{"switch-10000", func(c *cpu.Config) { c.ContextSwitchEvery = 10_000 }},
	}
	names := append(append([]string(nil), workloads.SpecNames...), workloads.ELFNames()...)
	for _, name := range names {
		w := workloads.MustByName(name, 1)
		res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range cpu.AllModes() {
				for _, c := range configs {
					for _, noBB := range []bool{false, true} {
						p := pipeFor(t, res, mode, w.Input, func(cfg *cpu.Config) {
							c.mutate(cfg)
							cfg.NoBlockCache = noBB
						})
						r, err := p.Run(cap)
						p.Release()
						if err != nil {
							t.Fatalf("%v/%s: %v", mode, c.name, err)
						}
						label := fmt.Sprintf("%v/%s/nobbcache=%v", mode, c.name, noBB)
						s := r.Stats
						if sum := s.Instructions + s.FetchStall + s.MemStall + s.ExecStall + s.ControlStall; s.Cycles != sum {
							t.Errorf("%s: cycles %d != instructions+stalls %d", label, s.Cycles, sum)
						}
						if s.DRCStall > s.ControlStall {
							t.Errorf("%s: drc stall %d exceeds control stall %d", label, s.DRCStall, s.ControlStall)
						}
						if s.SyscallCycles > s.ExecStall {
							t.Errorf("%s: syscall cycles %d exceed exec stall %d", label, s.SyscallCycles, s.ExecStall)
						}
					}
				}
			}
		})
	}
}
