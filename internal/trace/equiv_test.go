package trace_test

// Lockstep equivalence: trace-driven replay must reproduce execute-driven
// simulation bit for bit — same Stats, same cache/DRAM/DRC/bpred counters,
// same program output — for every workload and every architecture mode, and
// under every timing configuration replayed from one capture. The
// benchmark's trace.replay_* rows rest on this: a replay stands in for an
// execution without changing a single counter.

import (
	"bytes"
	"reflect"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/trace"
	"vcfr/internal/workloads"
)

var allModes = []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}

func equivCap(t *testing.T) uint64 {
	if testing.Short() {
		return 30_000
	}
	return 120_000
}

// capture runs app in mode execute-driven with a recorder attached.
func capture(t *testing.T, app *harness.App, mode cpu.Mode, maxInsts uint64) (*trace.Trace, cpu.Result) {
	t.Helper()
	p, _, err := app.Pipeline(mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, res, err := trace.Capture(p, maxInsts, trace.Meta{MaxInsts: maxInsts})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// replayWith replays tr through a fresh pipeline built with mutate.
func replayWith(t *testing.T, app *harness.App, mode cpu.Mode, tr *trace.Trace,
	maxInsts uint64, mutate func(*cpu.Config)) cpu.Result {
	t.Helper()
	p, _, err := app.Pipeline(mode, mutate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trace.Replay(tr, p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayEquivalenceAllWorkloads locks the headline acceptance property:
// for all 11 SPEC analogs under baseline, naive-ILR, and VCFR, a replayed
// run's full Result equals the execute-driven one.
func TestReplayEquivalenceAllWorkloads(t *testing.T) {
	maxInsts := equivCap(t)
	for _, name := range workloads.SpecNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := harness.Config{Seed: harness.CellSeed(42, "replay-equiv", name)}
			app, err := harness.Prepare(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range allModes {
				tr, want := capture(t, app, mode, maxInsts)
				if got := replayWith(t, app, mode, tr, maxInsts, nil); !reflect.DeepEqual(got, want) {
					t.Errorf("%v: replayed Result differs from execute-driven\ngot:  %+v\nwant: %+v",
						mode, got, want)
				}
			}
		})
	}
}

// TestReplayAcrossTimingConfigs is the record-once/replay-many property:
// one capture at the default configuration replays
// bit-identically against execute-driven runs under every timing mutation
// the experiments use.
func TestReplayAcrossTimingConfigs(t *testing.T) {
	maxInsts := equivCap(t)
	mutations := []struct {
		name   string
		mutate func(*cpu.Config)
	}{
		{"drc-512", func(c *cpu.Config) { c.DRCEntries = 512 }},
		{"drc-64", func(c *cpu.Config) { c.DRCEntries = 64 }},
		{"drc-64-4way", func(c *cpu.Config) { c.DRCEntries, c.DRCAssoc = 64, 4 }},
		{"drc-split", func(c *cpu.Config) { c.DRCSplit = true }},
		{"drc2", func(c *cpu.Config) { c.DRCEntries, c.DRC2Entries = 64, 1024 }},
		{"dual-issue", func(c *cpu.Config) { c.IssueWidth = 2 }},
		{"ctxswitch-10k", func(c *cpu.Config) { c.ContextSwitchEvery = 10_000 }},
		{"predict-rpc", func(c *cpu.Config) { c.PredictOnRPC = true }},
	}
	for _, name := range []string{"h264ref", "xalan"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := harness.Config{Seed: harness.CellSeed(42, "replay-configs", name)}
			app, err := harness.Prepare(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range allModes {
				tr, _ := capture(t, app, mode, maxInsts)
				for _, m := range mutations {
					wantRes, _, err := app.Run(mode, maxInsts, m.mutate)
					if err != nil {
						t.Fatal(err)
					}
					got := replayWith(t, app, mode, tr, maxInsts, m.mutate)
					if !reflect.DeepEqual(got, wantRes) {
						t.Errorf("%v/%s: replayed Result differs from execute-driven", mode, m.name)
					}
				}
			}
		})
	}
}

// TestReplayDivergenceDetected proves the replay front end rejects a trace
// captured from a different layout instead of silently producing garbage.
func TestReplayDivergenceDetected(t *testing.T) {
	maxInsts := uint64(20_000)
	appA, err := harness.Prepare("h264ref", harness.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	appB, err := harness.Prepare("sjeng", harness.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := capture(t, appA, cpu.ModeVCFR, maxInsts)
	p, _, err := appB.Pipeline(cpu.ModeVCFR, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Replay(tr, p, maxInsts); err == nil {
		t.Fatal("replaying h264ref's trace on sjeng's pipeline succeeded; want divergence error")
	}
}

// TestCaptureOutputRoundTrip checks the terminal program state survives
// capture and replay for a workload that emits output.
func TestCaptureOutputRoundTrip(t *testing.T) {
	app, err := harness.Prepare("memcpy", harness.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tr, want := capture(t, app, cpu.ModeVCFR, 0)
	if !want.Halted {
		t.Fatal("memcpy did not run to completion")
	}
	if !tr.Halted || tr.ExitCode != want.ExitCode || !bytes.Equal(tr.Out, want.Out) {
		t.Fatalf("trace terminal state %v/%d/%q != result %v/%d/%q",
			tr.Halted, tr.ExitCode, tr.Out, want.Halted, want.ExitCode, want.Out)
	}
	got := replayWith(t, app, cpu.ModeVCFR, tr, 0, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay-to-completion Result differs from execute-driven")
	}
}
