package jobs

import (
	"context"
	"strings"
	"testing"

	"vcfr/internal/harness"
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
// CLI `-seed 0` etc. would), while absent fields take the per-kind defaults
// and a negative scale or spread is refused.
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

	// Below zero there is no default to fall back on: every kind refuses a
	// negative scale or spread.
	neg := -3
	for _, e := range table {
		for want, r := range map[string]Request{
			"scale must be >= 0":  {Workload: "lbm", Scale: &neg},
			"spread must be >= 0": {Workload: "lbm", Spread: &neg},
		} {
			if err := r.Normalize(e.name); err == nil || err.Error() != want {
				t.Errorf("%s: err = %v, want %q", e.name, err, want)
			}
		}
	}
}

// BenchmarkServiceMix runs each kind of the service benchmark's mix
// (perfbench/spec.Mix) through Run on a warm runner, as a long-running vcfrd
// serves them: the job templates are the mix's (2000 instructions; faults
// with 2 injections; attacks with max_leaks 4 and advance_insts 500),
// rotating over its three workloads. The
// runner's prepared-app memo is warm after the first round, which the timer
// skips. It reports milliseconds per job; -benchmem adds bytes and
// allocations per job.
//
//	go test ./internal/jobs -run '^$' -bench ServiceMix -benchmem
func BenchmarkServiceMix(b *testing.B) {
	names := []string{"bzip2", "sjeng", "xalan"}
	templates := []struct {
		kind Kind
		req  func(w string) Request
	}{
		{KindRun, func(w string) Request { return Request{Workload: w, Mode: "vcfr", Instructions: 2000} }},
		{KindSweep, func(w string) Request { return Request{Workloads: []string{w}, Instructions: 2000} }},
		{KindFaults, func(w string) Request {
			return Request{Workloads: []string{w}, Injections: 2, Instructions: 2000}
		}},
		{KindAttacks, func(w string) Request {
			return Request{Workloads: []string{w}, MaxLeaks: 4, AdvanceInsts: 500, Instructions: 2000}
		}},
	}
	for _, tmpl := range templates {
		b.Run(string(tmpl.kind), func(b *testing.B) {
			r := harness.NewRunner(0)
			reqs := make([]Request, len(names))
			for i, w := range names {
				reqs[i] = tmpl.req(w)
				if err := reqs[i].Normalize(tmpl.kind); err != nil {
					b.Fatal(err)
				}
				if _, err := Run(context.Background(), r, tmpl.kind, reqs[i], nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Run(context.Background(), r, tmpl.kind, reqs[i%len(reqs)], nil)
				if err != nil {
					b.Fatal(err)
				}
				if out.Incomplete != nil {
					b.Fatal(out.Incomplete)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/job")
		})
	}
}
