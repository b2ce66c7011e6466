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
	aggs := controlByMode(t, rep)
	vcfr, baseline := aggs[cpu.ModeVCFR.String()], aggs[cpu.ModeBaseline.String()]
	if vcfr.DetectionRate <= baseline.DetectionRate {
		t.Errorf("VCFR control-flow detection rate %.3f not strictly above baseline %.3f on real code",
			vcfr.DetectionRate, baseline.DetectionRate)
	}
	if vcfr.Outcomes.DetectedUnmappedRPC == 0 {
		t.Error("VCFR detected no faults via the unmapped-RPC path on real code")
	}
	if n := baseline.Outcomes.DetectedUnmappedRPC; n != 0 {
		t.Errorf("baseline claims %d unmapped-RPC detections; it has no randomized space", n)
	}
}
