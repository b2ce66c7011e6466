package jobs

import (
	"strings"
	"testing"
)

// TestParseKindTable locks the kind vocabulary to the table: every entry
// round-trips through ParseKind, and the missing- and unknown-kind errors
// keep their wire text.
func TestParseKindTable(t *testing.T) {
	for _, e := range table {
		k, err := ParseKind(string(e.name))
		if err != nil || k != e.name {
			t.Errorf("ParseKind(%q) = %q, %v", e.name, k, err)
		}
	}
	for _, tc := range []struct{ in, want string }{
		{"", `job needs a "kind" (run, sweep, faults, attacks, or multicore)`},
		{"exfiltrate", `unknown job kind "exfiltrate" (want run, sweep, faults, attacks, or multicore)`},
	} {
		if _, err := ParseKind(tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("ParseKind(%q) error = %v, want %q", tc.in, err, tc.want)
		}
	}
	for k, want := range map[Kind]bool{
		KindRun: false, KindSweep: false, KindFaults: true, KindAttacks: true, KindMulticore: true, "tables": false,
	} {
		if k.Campaign() != want {
			t.Errorf("%q.Campaign() = %v, want %v", k, !want, want)
		}
	}
}

// TestNormalizeExplicitZero locks the zero-vs-unset distinction: an explicit
// zero in the request survives Normalize (reaching the harness exactly as a
// CLI `-seed 0` etc. would), while absent fields take the per-kind defaults.
func TestNormalizeExplicitZero(t *testing.T) {
	zero64, zero := int64(0), 0
	r := Request{Workload: "lbm", Seed: &zero64, Spread: &zero, Scale: &zero}
	if err := r.Normalize(KindRun); err != nil {
		t.Fatal(err)
	}
	if *r.Seed != 0 || *r.Spread != 0 || *r.Scale != 0 {
		t.Errorf("explicit zeros rewritten: seed=%d spread=%d scale=%d, want all 0",
			*r.Seed, *r.Spread, *r.Scale)
	}

	// The machine knobs keep the same zero-vs-unset distinction, but an
	// explicit zero is an invalid machine config, and Normalize now rejects
	// it up front via cpu.Config.Validate — with the exact message the CLI
	// produces for the equivalent bad flag, because it is the same check.
	badWidth := Request{Workload: "lbm", Width: &zero}
	if err := badWidth.Normalize(KindRun); err == nil || err.Error() != "cpu: issue width 0 out of range [1,4]" {
		t.Errorf("width 0: err = %v, want cpu.Config.Validate's message", err)
	}
	badDRC := Request{Workload: "lbm", DRC: &zero}
	if err := badDRC.Normalize(KindRun); err == nil || !strings.Contains(err.Error(), "cpu: DRC 0 entries") {
		t.Errorf("drc 0: err = %v, want cpu.Config.Validate's message", err)
	}

	run := Request{Workload: "lbm"}
	if err := run.Normalize(KindRun); err != nil {
		t.Fatal(err)
	}
	if *run.Seed != 1 || *run.Spread != 8 || *run.Scale != 1 || *run.DRC != 128 || *run.Width != 1 {
		t.Errorf("simulate defaults: seed=%d spread=%d scale=%d drc=%d width=%d, want 1/8/1/128/1",
			*run.Seed, *run.Spread, *run.Scale, *run.DRC, *run.Width)
	}

	sweep := Request{}
	if err := sweep.Normalize(KindSweep); err != nil {
		t.Fatal(err)
	}
	if *sweep.Seed != 42 {
		t.Errorf("sweep default seed = %d, want 42", *sweep.Seed)
	}
}
