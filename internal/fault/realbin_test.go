package fault

import (
	"context"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
)

// TestVCFRDetectsMoreControlFaultsOnRealBinary replays the dependability
// acceptance criterion over lifted real-binary text instead of a synthetic
// analog: injecting control-flow faults into the elf-dispatch fixture, the
// VCFR machine's detection rate over the control-flow kinds must be strictly
// above the baseline's, and the detections must arrive via the unmapped-RPC
// path only VCFR has. This is the paper's claim holding on real RV64 code
// that entered through the ELF front end.
func TestVCFRDetectsMoreControlFaultsOnRealBinary(t *testing.T) {
	r := harness.NewRunner(0)
	rep, err := RunCampaign(context.Background(), r, Config{
		Workloads:  []string{"elf-dispatch"},
		Injections: 48,
		Seed:       7,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("campaign over elf-dispatch reported partial")
	}
	rates := make(map[cpu.Mode]float64)
	var vcfr, baseline Stats
	for _, agg := range rep.ControlAggregates() {
		if agg.Stats.Injected == 0 {
			t.Fatalf("mode %s aggregated zero control-flow injections", agg.Mode)
		}
		rates[agg.Mode] = agg.Stats.DetectionRate()
		switch agg.Mode {
		case cpu.ModeVCFR:
			vcfr = agg.Stats
		case cpu.ModeBaseline:
			baseline = agg.Stats
		}
	}
	if rates[cpu.ModeVCFR] <= rates[cpu.ModeBaseline] {
		t.Errorf("VCFR control-flow detection rate %.3f not strictly above baseline %.3f on real code",
			rates[cpu.ModeVCFR], rates[cpu.ModeBaseline])
	}
	if vcfr.DetectedUnmappedR == 0 {
		t.Error("VCFR detected no faults via the unmapped-RPC path on real code")
	}
	if baseline.DetectedUnmappedR != 0 {
		t.Errorf("baseline claims %d unmapped-RPC detections; it has no randomized space",
			baseline.DetectedUnmappedR)
	}
}
