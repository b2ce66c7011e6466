package cpu

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/ilr"
	"vcfr/internal/stats"
)

func clusterProcs(t *testing.T) []ClusterProc {
	t.Helper()
	a := rewriteSrc(t, "fib", fibSrc)
	b, err := ilr.Rewrite(a.Orig, ilr.Options{Seed: 555}) // same program, different epoch
	if err != nil {
		t.Fatal(err)
	}
	c := rewriteSrc(t, "calls", callHeavySrc)
	return []ClusterProc{
		{Img: a.VCFR, Trans: a.Tables, RandRA: a.RandRA},
		{Img: b.VCFR, Trans: b.Tables, RandRA: b.RandRA},
		{Img: c.VCFR, Trans: c.Tables, RandRA: c.RandRA},
	}
}

func TestClusterRunsIndependentProcesses(t *testing.T) {
	cl, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, clusterProcs(t))
	if err != nil {
		t.Fatal(err)
	}
	results, err := cl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Two differently randomized copies of the same program agree with each
	// other; the third process computes its own answer.
	if string(results[0].Out) != "6765" || string(results[1].Out) != "6765" {
		t.Errorf("fib cores: %q, %q", results[0].Out, results[1].Out)
	}
	if string(results[2].Out) != "144000" {
		t.Errorf("calls core: %q", results[2].Out)
	}
	for i, r := range results {
		if !r.Halted {
			t.Errorf("core %d did not halt", i)
		}
		if r.DRC.Lookups == 0 {
			t.Errorf("core %d never used its private DRC", i)
		}
	}
	// Shared L2: the per-core views report the same (shared) L2 counters.
	if results[0].L2.Accesses != results[2].L2.Accesses {
		t.Error("cores disagree about the shared L2 counters")
	}
}

// TestClusterSharedL2Contention: co-running raises a core's cycle count
// relative to running alone (shared L2 capacity), but never changes results.
func TestClusterSharedL2Contention(t *testing.T) {
	procs := clusterProcs(t)

	solo, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, procs[:1])
	if err != nil {
		t.Fatal(err)
	}
	soloRes, err := solo.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	co, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, procs)
	if err != nil {
		t.Fatal(err)
	}
	coRes, err := co.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(soloRes[0].Out) != string(coRes[0].Out) {
		t.Errorf("co-running changed output: %q vs %q", soloRes[0].Out, coRes[0].Out)
	}
	if coRes[0].Stats.Instructions != soloRes[0].Stats.Instructions {
		t.Error("co-running changed the instruction count")
	}
}

func TestClusterMixedModes(t *testing.T) {
	a := rewriteSrc(t, "fib", fibSrc)
	cl, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, []ClusterProc{
		{Img: a.VCFR, Trans: a.Tables, RandRA: a.RandRA},
		{Img: a.Orig, Mode: ModeBaseline},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := cl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(results[0].Out) != string(results[1].Out) {
		t.Errorf("protected and unprotected cores disagree: %q vs %q",
			results[0].Out, results[1].Out)
	}
	if results[1].DRC.Lookups != 0 {
		t.Error("baseline core used a DRC")
	}
}

// TestClusterSoloMatchesPipeline is the refactor's anchor: a 1-core,
// 1-tenant cluster must produce a byte-identical Result — counters, timing,
// output, and the sampled interval series — to the plain single-core
// pipeline with the block cache on. This proves the scheduler advances
// tenants through the same cached advanceTo path, not a second interpreter,
// and that solo tenants are never charged a switch-in.
func TestClusterSoloMatchesPipeline(t *testing.T) {
	res := rewriteSrc(t, "callheavy", callHeavySrc)
	for _, mode := range []Mode{ModeBaseline, ModeNaiveILR, ModeVCFR} {
		t.Run(mode.String(), func(t *testing.T) {
			// 997 is prime: sample edges align with neither quantum nor
			// block boundaries.
			single := runPipe(t, res, mode, func(c *Config) { c.SampleEvery = 997 })
			cfg := DefaultConfig(mode)
			cfg.SampleEvery = 997
			img, trans, randRA := mode.Deploy(res)
			cl, err := NewScheduledCluster(cfg, SchedConfig{}, []ClusterProc{{Img: img, Trans: trans, RandRA: randRA}})
			if err != nil {
				t.Fatal(err)
			}
			out, err := cl.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := json.Marshal(single)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(out[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("solo cluster result diverges from the single-core pipeline:\npipeline %s\ncluster  %s", a, b)
			}
			if len(single.Intervals) != len(out[0].Intervals) {
				t.Fatalf("snapshot counts diverge: pipeline %d, cluster %d",
					len(single.Intervals), len(out[0].Intervals))
			}
			for i := range single.Intervals {
				d, err := out[0].Intervals[i].Delta(single.Intervals[i])
				if err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				d.Each(func(desc stats.Desc, v stats.Value) {
					if v.U != 0 || v.G != 0 || v.F != 0 {
						t.Errorf("snapshot %d: %s diverges between cluster and pipeline", i, desc.Name)
					}
				})
			}
			if st := cl.SchedStats(); st[0].Switches != 0 {
				t.Errorf("solo tenant charged %d switch-ins", st[0].Switches)
			}
		})
	}
}

// TestClusterTimeSharing: more tenants than cores. Scheduling must never
// change architectural results (outputs, instruction counts match the
// one-tenant-per-core run); it must charge the paper's switch-in cost (DRC
// flushes on the VCFR tenants, per-process-key switch-ins counted per core).
func TestClusterTimeSharing(t *testing.T) {
	procs := clusterProcs(t)

	wide, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, procs)
	if err != nil {
		t.Fatal(err)
	}
	wideRes, err := wide.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{Cores: 1, Quantum: 50}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Cores() != 1 {
		t.Fatalf("Cores() = %d, want 1", cl.Cores())
	}
	out, err := cl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if string(out[i].Out) != string(wideRes[i].Out) {
			t.Errorf("tenant %d: time-sharing changed output: %q vs %q", i, out[i].Out, wideRes[i].Out)
		}
		if out[i].Stats.Instructions != wideRes[i].Stats.Instructions {
			t.Errorf("tenant %d: time-sharing changed the instruction count", i)
		}
		if !out[i].Halted {
			t.Errorf("tenant %d did not halt", i)
		}
		if out[i].DRC.Flushes == 0 {
			t.Errorf("tenant %d paid no DRC flushes under time-sharing", i)
		}
		if wideRes[i].DRC.Flushes != 0 {
			t.Errorf("tenant %d paid DRC flushes with a core to itself", i)
		}
	}
	st := cl.SchedStats()
	if len(st) != 1 {
		t.Fatalf("SchedStats() = %d cores, want 1", len(st))
	}
	if st[0].TenantsBound != 3 {
		t.Errorf("tenants bound = %d, want 3", st[0].TenantsBound)
	}
	if st[0].Switches == 0 || st[0].Quanta < st[0].Switches {
		t.Errorf("implausible scheduling counters: %+v", st[0])
	}
	if st[0].BlockDrops == 0 {
		t.Errorf("per-process-key tenant switch-ins not counted in BlockDrops: %+v", st[0])
	}
	if st[0].Preemptions == 0 {
		t.Errorf("50-instruction quanta never preempted anyone: %+v", st[0])
	}
}

// TestClusterTenantFaultIsolated: one tenant's fault lands on that tenant's
// row; co-tenants run to completion (the sweep runner's per-cell error-row
// convention, applied to the cluster).
func TestClusterTenantFaultIsolated(t *testing.T) {
	snoop := asm.MustAssemble("snoop", `
.entry main
main:
	movi r2, 0x20000000   ; TableBase
	load r3, [r2+0]       ; user-space read of an invisible page
	halt
`)
	bad, err := ilr.Rewrite(snoop, ilr.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	good := rewriteSrc(t, "fib", fibSrc)
	cl, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{Cores: 1}, []ClusterProc{
		{Img: bad.VCFR, Trans: bad.Tables, RandRA: bad.RandRA},
		{Img: good.VCFR, Trans: good.Tables, RandRA: good.RandRA},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Run(0)
	if err == nil || !errors.Is(err, ErrTablePageAccess) || !strings.Contains(err.Error(), "tenant 0") {
		t.Errorf("Run error = %v, want tenant 0's ErrTablePageAccess", err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d, want one per tenant", len(out))
	}
	if string(out[1].Out) != "6765" || !out[1].Halted {
		t.Errorf("surviving tenant did not finish: halted=%v out=%q", out[1].Halted, out[1].Out)
	}
	errs := cl.Errors()
	if !errors.Is(errs[0], ErrTablePageAccess) {
		t.Errorf("Errors()[0] = %v, want ErrTablePageAccess", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("Errors()[1] = %v, want nil", errs[1])
	}
}

// TestClusterRunContextCancelled: a cancelled context stops the scheduler
// between quanta and still hands back one (partial) result per tenant.
func TestClusterRunContextCancelled(t *testing.T) {
	cl, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, clusterProcs(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := cl.RunContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(out) != 3 {
		t.Fatalf("partial results = %d, want one per tenant", len(out))
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, nil); err == nil {
		t.Error("empty cluster accepted")
	}
	a := rewriteSrc(t, "fib", fibSrc)
	if _, err := NewScheduledCluster(DefaultConfig(ModeVCFR), SchedConfig{}, []ClusterProc{
		{Img: a.VCFR /* missing translator */},
	}); err == nil || !strings.Contains(err.Error(), "Translator") {
		t.Errorf("VCFR core without translator accepted: %v", err)
	}
}
