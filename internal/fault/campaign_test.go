package fault

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
)

var update = flag.Bool("update", false, "rewrite golden files")

// canonicalReport runs the canonical campaign (the default Config every
// surface runs) exactly once per test binary and shares the report.
var canonicalReport = sync.OnceValues(func() (*Report, error) {
	return RunCampaign(context.Background(), harness.NewRunner(0), Config{}, nil)
})

// TestCampaignGolden pins the canonical campaign's results envelope byte for
// byte: same seed, same sites, same flip masks, same coverage table, on
// every machine and Go version. Regenerate with -update after a deliberate
// change to the campaign (and bump the results schema if the wire shape
// changed).
func TestCampaignGolden(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	got, err := results.Marshal(rep.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "campaign.golden.json", got)
	checkGolden(t, "table.golden", []byte(rep.Table().Render()))
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("%s drifted\n--- got ---\n%.2000s", path, got)
	}
}

// TestVCFRDetectsMoreControlFaults is the dependability acceptance
// criterion: over the control-flow fault kinds the VCFR machine's detection
// rate must be strictly above the baseline's — the corrupted transfer lands
// on an unmapped randomized address and trips the control-violation check,
// where the baseline silently keeps executing mapped original-space code.
func TestVCFRDetectsMoreControlFaults(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("canonical campaign reported partial")
	}
	aggs := controlByMode(t, rep)
	vcfr, baseline := aggs[cpu.ModeVCFR.String()], aggs[cpu.ModeBaseline.String()]
	if vcfr.DetectionRate <= baseline.DetectionRate {
		t.Errorf("VCFR control-flow detection rate %.3f not strictly above baseline %.3f",
			vcfr.DetectionRate, baseline.DetectionRate)
	}
	// The paper's mechanism, specifically: VCFR must catch faults via the
	// unmapped-RPC path, which the other two architectures cannot.
	if vcfr.Outcomes.DetectedUnmappedRPC == 0 {
		t.Error("VCFR detected no faults via the unmapped-RPC path")
	}
	if n := baseline.Outcomes.DetectedUnmappedRPC; n != 0 {
		t.Errorf("baseline claims %d unmapped-RPC detections; it has no randomized space", n)
	}
}

// controlByMode keys the report's control-flow aggregates by mode, failing
// on a mode that aggregated nothing.
func controlByMode(t *testing.T, rep *Report) map[string]results.CampaignRow {
	t.Helper()
	out := make(map[string]results.CampaignRow)
	for _, agg := range rep.ControlAggregates() {
		if agg.Outcomes.Injected == 0 {
			t.Fatalf("mode %s aggregated zero control-flow injections", agg.Mode)
		}
		out[agg.Mode] = agg
	}
	return out
}

// TestCampaignDeterministicAcrossWorkers locks worker-count independence:
// the same seed must yield byte-identical coverage tables whether the
// injections run serially or spread over eight workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Workloads:  []string{"bzip2", "xalan"},
		Injections: 24,
		MaxInsts:   10000,
		Seed:       7,
	}
	run := func(workers int) []byte {
		t.Helper()
		rep, err := RunCampaign(context.Background(), harness.NewRunner(workers), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := results.Marshal(rep.Envelope())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("coverage table depends on worker count:\n--- workers=1 ---\n%.1500s\n--- workers=8 ---\n%.1500s",
			serial, parallel)
	}
}

// TestCampaignCancellation proves a cancelled campaign returns the partial
// report instead of an error: rows come back in full, unexecuted injections
// are marked, and Partial is set.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCampaign(ctx, harness.NewRunner(1), Config{
		Workloads: []string{"bzip2"}, Injections: 10, MaxInsts: 5000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("cancelled campaign not marked partial")
	}
	wantRows := len(kindsFor(AllKinds(), cpu.ModeBaseline)) +
		len(kindsFor(AllKinds(), cpu.ModeNaiveILR)) + len(AllKinds())
	if len(rep.Rows) != wantRows {
		t.Errorf("cancelled campaign has %d rows, want the full plan of %d", len(rep.Rows), wantRows)
	}
	for _, r := range rep.Rows {
		if r.Error == "" {
			t.Errorf("row %s/%s/%s executed under a cancelled context", r.Workload, r.Mode, r.Fault)
		}
	}
	env := rep.Envelope()
	if !env.Campaign.Partial {
		t.Error("envelope of cancelled campaign not marked partial")
	}
}

// TestCampaignCancelledMidFlight cancels a running campaign after its first
// finished injection: every row either finished cleanly or carries the
// context's error, both kinds of row exist, and the report is partial.
func TestCampaignCancelledMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := RunCampaign(ctx, harness.NewRunner(1), Config{
		Workloads: []string{"bzip2"}, Injections: 10, MaxInsts: 5000,
	}, func(harness.Progress) { cancel() })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("campaign cancelled mid-flight not marked partial")
	}
	var finished, cancelled int
	for _, r := range rep.Rows {
		switch r.Error {
		case "":
			finished++
		case context.Canceled.Error():
			cancelled++
		default:
			t.Errorf("row %s/%s/%s: error %q, want none or %q", r.Workload, r.Mode, r.Fault, r.Error, context.Canceled)
		}
	}
	if finished == 0 || cancelled == 0 {
		t.Errorf("%d finished and %d cancelled rows, want some of each", finished, cancelled)
	}
}

// TestCampaignProgress checks the live progress feed: monotone injection
// counts ending at the plan total.
func TestCampaignProgress(t *testing.T) {
	var mu sync.Mutex
	var last harness.Progress
	var calls int
	rep, err := RunCampaign(context.Background(), harness.NewRunner(2), Config{
		Workloads: []string{"bzip2"}, Modes: []cpu.Mode{cpu.ModeVCFR},
		Injections: 20, MaxInsts: 5000,
	}, func(p harness.Progress) {
		// Callbacks from different workers may arrive out of order; keep
		// the furthest point seen.
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.CellsDone > last.CellsDone {
			last = p
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("campaign partial")
	}
	if calls == 0 || last.CellsDone != last.CellsTotal || last.Instructions == 0 {
		t.Errorf("final progress %+v after %d calls, want all injections done with nonzero instructions", last, calls)
	}
}

// TestSplitInjections pins the even split with remainder-first rule.
func TestSplitInjections(t *testing.T) {
	got := splitInjections(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitInjections(10, 4) = %v, want %v", got, want)
		}
	}
}
