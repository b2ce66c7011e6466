package attack

import (
	"context"
	"testing"

	"vcfr/internal/harness"
	"vcfr/internal/results"
)

// TestAttackCampaignOverRealBinary runs the adversary-in-the-loop evaluation
// over lifted real-binary text: the campaign must complete (every cell
// executed), the gadget scanner must find a non-empty pool in the lifted
// dispatch fixture, and the report must ride the same versioned envelope as
// the synthetic campaigns. The fixture's pool is tiny compared to the
// analogs, so the claim here is that real code flows through the security
// evaluation unchanged — not that any particular payload lands.
func TestAttackCampaignOverRealBinary(t *testing.T) {
	r := harness.NewRunner(0)
	rep, err := RunCampaign(context.Background(), r, Config{
		Workloads: []string{"elf-dispatch"},
		Seed:      7,
		MaxLeaks:  64,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("campaign over elf-dispatch reported partial")
	}
	if len(rep.Rows) == 0 {
		t.Fatal("campaign produced no rows")
	}
	for _, row := range rep.Rows {
		if row.Error != "" {
			t.Errorf("%s/%s/%s: %s", row.Workload, row.Mode, row.Payload, row.Error)
		}
		if row.Static.PoolSize == 0 {
			t.Errorf("%s/%s/%s: empty gadget pool over lifted text",
				row.Workload, row.Mode, row.Payload)
		}
	}
	if _, err := results.Marshal(rep.Envelope()); err != nil {
		t.Fatalf("envelope does not marshal: %v", err)
	}
}
