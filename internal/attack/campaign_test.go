package attack

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/fault"
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
// byte: same layouts, same leak serve orders, same chains, same work-factor
// numbers, on every machine and Go version. Regenerate with -update after a
// deliberate change to the attacker, the defense, or the wire shape (and bump
// the results schema when the latter changes).
func TestCampaignGolden(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	got, err := results.Marshal(rep.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "campaign.golden.json")
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
		t.Errorf("campaign envelope drifted from %s\n--- got ---\n%.2000s", path, got)
	}
}

// TestConcurrentCampaignsShareApps runs two canonical attack campaigns and
// the canonical fault campaign at once on one runner whose app memo already
// holds the attack layouts, so both attack campaigns read the same *App
// values concurrently. Each envelope must still equal its golden file; under
// the race detector this also checks that campaigns treat memoized apps as
// read-only.
func TestConcurrentCampaignsShareApps(t *testing.T) {
	ctx := context.Background()
	r := harness.NewRunner(0)
	cfg := Config{}.withDefaults()
	for _, w := range cfg.Workloads {
		if _, err := r.Prepare(ctx, w, harness.Config{
			Scale: cfg.Scale, Spread: cfg.Spread, Seed: harness.CellSeed(cfg.Seed, "attacks", w),
		}); err != nil {
			t.Fatal(err)
		}
	}
	golden := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	paths := []string{
		filepath.Join("testdata", "campaign.golden.json"),
		filepath.Join("testdata", "campaign.golden.json"),
		filepath.Join("..", "fault", "testdata", "campaign.golden.json"),
	}
	envs := make([]results.Envelope, len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i := range paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i < 2 {
				var rep *Report
				if rep, errs[i] = RunCampaign(ctx, r, Config{}, nil); errs[i] == nil {
					envs[i] = rep.Envelope()
				}
				return
			}
			var rep *fault.Report
			if rep, errs[i] = fault.RunCampaign(ctx, r, fault.Config{}, nil); errs[i] == nil {
				envs[i] = rep.Envelope()
			}
		}(i)
	}
	wg.Wait()
	for i, path := range paths {
		if errs[i] != nil {
			t.Fatalf("campaign %d: %v", i, errs[i])
		}
		got, err := results.Marshal(envs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden(path)) {
			t.Errorf("campaign %d: envelope differs from %s", i, path)
		}
	}
	if hits, _ := r.AppMemoStats(); hits < uint64(2*len(cfg.Workloads)) {
		t.Errorf("app memo hits = %d, want >= %d: the attack campaigns did not share apps",
			hits, 2*len(cfg.Workloads))
	}
}

// TestColdCampaignsPrepareOnce starts two identical attack campaigns at
// once on a cold runner. Their concurrent misses on each workload must build
// it once: the memo records one miss per distinct app, and both campaigns
// report the same cells.
func TestColdCampaignsPrepareOnce(t *testing.T) {
	r := harness.NewRunner(0)
	cfg := Config{MaxLeaks: 2, MaxInsts: 2000, AdvanceInsts: 500}
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		reps  [2]*Report
		errs  [2]error
	)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			reps[i], errs[i] = RunCampaign(context.Background(), r, cfg, nil)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(reps[0].Envelope(), reps[1].Envelope()) {
		t.Error("two identical campaigns reported different envelopes")
	}
	want := uint64(len(DefaultWorkloads()))
	if hits, misses := r.AppMemoStats(); misses != want || hits != want {
		t.Errorf("app memo: %d hits, %d misses; want %d and %d (one build per workload)",
			hits, misses, want, want)
	}
}

// TestAttackOrdering is the security acceptance criterion: under the
// canonical leak budget the plain-disclosure success rate must rank
//
//	baseline > naive ILR >= VCFR,
//
// with VCFR admitting no success through any phase — not full-knowledge
// static chains, not plain disclosure, not disclosure against
// re-randomization — because every compiled chain names untagged addresses
// and default-deny turns the fire into a detection.
func TestAttackOrdering(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("canonical campaign reported partial")
	}
	rates := make(map[cpu.Mode]ModeSummary)
	for _, s := range rep.Summaries() {
		if s.Cells == 0 {
			t.Fatalf("mode %s summarized zero cells", s.Mode)
		}
		rates[s.Mode] = s
	}
	b, n, v := rates[cpu.ModeBaseline], rates[cpu.ModeNaiveILR], rates[cpu.ModeVCFR]
	if !(b.SuccessRate > n.SuccessRate && n.SuccessRate >= v.SuccessRate) {
		t.Errorf("success rates not ordered: baseline %.3f > naive %.3f >= vcfr %.3f",
			b.SuccessRate, n.SuccessRate, v.SuccessRate)
	}
	if b.SuccessRate != 1 {
		t.Errorf("baseline in-budget success rate %.3f, want 1.0 (every cell falls in a page or two)", b.SuccessRate)
	}
	if v.StaticSuccesses != 0 || v.Successes != 0 || v.RerandSuccesses != 0 {
		t.Errorf("VCFR admitted successes (static %d, plain %d, rerand %d), want none",
			v.StaticSuccesses, v.Successes, v.RerandSuccesses)
	}
	// Naive ILR's characteristic hole: the un-randomized space stays live, so
	// full-knowledge static chains at original addresses still work.
	if n.StaticSuccesses != n.Cells {
		t.Errorf("naive ILR static successes %d/%d, want the un-randomized-space hole on every cell",
			n.StaticSuccesses, n.Cells)
	}
	if b.StaticSuccesses != b.Cells {
		t.Errorf("baseline static successes %d/%d, want all", b.StaticSuccesses, b.Cells)
	}
	// And the mechanism, specifically: every VCFR fire must be detected as an
	// unmapped/prohibited randomized-space transfer, never a silent no-effect.
	for _, r := range rep.Rows {
		if r.Mode != cpu.ModeVCFR {
			continue
		}
		if r.Stats.ChainsFired == 0 {
			t.Errorf("vcfr/%s/%s fired no chains; the disclosure attacker should at least try", r.Workload, r.Payload)
		}
		if r.Stats.ChainsFired != r.Stats.BlockedRPC {
			t.Errorf("vcfr/%s/%s: %d fires but %d unmapped-RPC detections; every fire must trip default-deny",
				r.Workload, r.Payload, r.Stats.ChainsFired, r.Stats.BlockedRPC)
		}
	}
}

// TestRerandomizationRaisesWorkFactor locks the re-randomization claim: for
// every cell whose plain attacker succeeded, racing the same attacker against
// periodic layout swaps must either strictly raise the leaks needed or defeat
// it outright — and neither side of that disjunction may be vacuous over the
// canonical campaign.
func TestRerandomizationRaisesWorkFactor(t *testing.T) {
	rep, err := canonicalReport()
	if err != nil {
		t.Fatal(err)
	}
	var strictlyMore, defeated int
	for _, r := range rep.Rows {
		if !r.Plain.Success || r.Rerand == nil {
			continue
		}
		switch {
		case !r.Rerand.Success:
			defeated++
		case r.Rerand.Leaks > r.Plain.Leaks:
			strictlyMore++
		default:
			t.Errorf("%s/%s/%s: re-randomization did not raise the work factor (plain %d leaks, rerand %d, success %v)",
				r.Workload, r.Mode, r.Payload, r.Plain.Leaks, r.Rerand.Leaks, r.Rerand.Success)
		}
		if r.Rerand.Epochs == 0 {
			t.Errorf("%s/%s/%s: rerand arm swapped zero epochs", r.Workload, r.Mode, r.Payload)
		}
	}
	if strictlyMore == 0 {
		t.Error("no cell where re-randomization strictly raised the leak count; the claim is vacuous")
	}
	if defeated == 0 {
		t.Error("no cell where re-randomization defeated the attacker outright; the claim is vacuous")
	}
	if rep.Totals.Rerandomizations == 0 {
		t.Error("campaign performed zero re-randomizations")
	}
}

// TestCampaignDeterministicAcrossWorkers locks worker-count independence: the
// same seed must yield byte-identical work-factor tables whether the cells
// run serially or spread over eight workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Workloads: []string{"bzip2", "sjeng"},
		Seed:      7,
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
		t.Errorf("work-factor table depends on worker count:\n--- workers=1 ---\n%.1500s\n--- workers=8 ---\n%.1500s",
			serial, parallel)
	}
}

// TestCampaignCancellation proves a cancelled campaign returns the partial
// report instead of an error: the full cell plan comes back, unexecuted
// cells are marked, and Partial is set — on the report and on the wire.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunCampaign(ctx, harness.NewRunner(1), Config{Workloads: []string{"bzip2"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Error("cancelled campaign not marked partial")
	}
	wantRows := len(cpu.AllModes()) * len(AllPayloads())
	if len(rep.Rows) != wantRows {
		t.Errorf("cancelled campaign has %d rows, want the full plan of %d", len(rep.Rows), wantRows)
	}
	for _, r := range rep.Rows {
		if r.Error == "" {
			t.Errorf("row %s/%s/%s executed under a cancelled context", r.Workload, r.Mode, r.Payload)
		}
	}
	env := rep.Envelope()
	if !env.Attack.Partial {
		t.Error("envelope of cancelled campaign not marked partial")
	}
}

// TestCampaignProgress checks the live progress feed: monotone cell counts
// ending at the plan total with victim instructions attributed.
func TestCampaignProgress(t *testing.T) {
	var mu sync.Mutex
	var last harness.Progress
	var calls int
	rep, err := RunCampaign(context.Background(), harness.NewRunner(2), Config{
		Workloads: []string{"bzip2"}, Modes: []cpu.Mode{cpu.ModeVCFR},
	}, func(p harness.Progress) {
		// Callbacks from different workers may arrive out of order; keep the
		// furthest point seen.
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
		t.Errorf("final progress %+v after %d calls, want all cells done with nonzero instructions", last, calls)
	}
}

// TestParsePayloads pins the CLI/request payload vocabulary.
func TestParsePayloads(t *testing.T) {
	got, err := ParsePayloads([]string{"print-and-exit", " exfiltrate"})
	if err != nil || len(got) != 2 || got[0] != PayloadPrint || got[1] != PayloadExfil {
		t.Fatalf("ParsePayloads = %v, %v", got, err)
	}
	if _, err := ParsePayloads([]string{"rootkit"}); err == nil {
		t.Error("ParsePayloads(rootkit) accepted")
	}
	if err := (Config{Payloads: []Payload{"rootkit"}}).withDefaults().validate(); err == nil {
		t.Error("validate accepted an unknown payload")
	}
	if err := (Config{Workloads: []string{"no-such-workload"}}).withDefaults().validate(); err == nil {
		t.Error("validate accepted an unknown workload")
	}
}

// BenchmarkChainBuild measures the chain builder alone: payload templates
// compiled per second against a full-knowledge baseline gadget pool.
func BenchmarkChainBuild(b *testing.B) {
	app, err := harness.Prepare("sjeng", harness.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pool := sharedFor(app, cpu.ModeBaseline).pool
	payloads := AllPayloads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			if _, err := buildChain(pool, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(payloads)*b.N)/b.Elapsed().Seconds(), "chains/s")
}

// BenchmarkFire measures the full hijack round trip: build the victim, smash
// the first return with a compiled chain, classify the architectural outcome.
func BenchmarkFire(b *testing.B) {
	app, err := harness.Prepare("sjeng", harness.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	ch, err := buildChain(sharedFor(app, cpu.ModeBaseline).pool, PayloadPrint)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o := fire(ctx, app, cpu.ModeBaseline, app.R, ch, PayloadPrint, 25000); o != OutcomeSuccess {
			b.Fatalf("fire = %v, want success", o)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fires/s")
}

// BenchmarkCampaign measures the whole canonical campaign on one worker —
// workload preparation, the leak oracle, gadget pools, re-randomization
// epochs, chain builds and fires — as campaign cells per second. It is the
// end-to-end row the chain-build and fire benchmarks above are layers of.
func BenchmarkCampaign(b *testing.B) {
	cells := 0
	for i := 0; i < b.N; i++ {
		rep, err := RunCampaign(context.Background(), harness.NewRunner(1), Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Partial {
			b.Fatal("canonical campaign reported partial")
		}
		cells += len(rep.Rows)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}
