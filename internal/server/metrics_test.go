package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vcfr/internal/realbin"
	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/results"
	"vcfr/internal/stats"
)

// TestMetricsRegistryExactlyOnce is the spine's anti-drift guarantee for the
// server: every value registered into the metrics registry appears in the
// /metrics exposition exactly once — one sample line per series, and HELP/TYPE
// exactly once per metric name. A counter added to the registry therefore
// cannot be silently dropped from (or duplicated in) the exposition, because
// the text is generated from the same registry this test walks.
func TestMetricsRegistryExactlyOnce(t *testing.T) {
	m := newMetrics()
	m.jobAccepted()
	m.jobStarted(5 * time.Millisecond)
	m.jobFinished(true, 80*time.Millisecond)
	m.campaignFinished(results.NewCampaign(results.Campaign{
		Totals: results.CampaignCounts{Injected: 4, DetectedUnmappedRPC: 3, Masked: 1}}))
	m.campaignFinished(results.NewAttack(results.Attack{
		Totals: results.AttackCounts{ChainsBuilt: 5, ChainsFired: 5,
			Successes: 2, BlockedRPC: 3, Leaks: 40, Rerandomizations: 8}}))

	var b strings.Builder
	m.render(&b, 3, 16, cacheStats{appHits: 9, appMisses: 4})
	out := b.String()
	lines := strings.Split(out, "\n")

	countPrefix := func(prefix string) int {
		n := 0
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				n++
			}
		}
		return n
	}

	seenName := make(map[string]bool)
	m.reg.Snapshot().Each(func(d stats.Desc, _ stats.Value) {
		name := stats.PromName("vcfrd", d)
		series := name
		if d.Labels != "" {
			series += "{" + d.Labels + "}"
		}
		if got := countPrefix(series + " "); got != 1 {
			t.Errorf("series %s: %d sample lines, want exactly 1", series, got)
		}
		if !seenName[name] {
			seenName[name] = true
			if got := countPrefix("# HELP " + name + " "); got != 1 {
				t.Errorf("metric %s: %d HELP lines, want exactly 1", name, got)
			}
			if got := countPrefix("# TYPE " + name + " "); got != 1 {
				t.Errorf("metric %s: %d TYPE lines, want exactly 1", name, got)
			}
		}
	})
	if len(seenName) == 0 {
		t.Fatal("registry rendered no metrics")
	}
}

// TestMetricsRenderFormat pins the generated exposition to the exact bytes
// the hand-written renderer used to produce, so swapping in registry-driven
// generation is invisible to scrapers.
func TestMetricsRenderFormat(t *testing.T) {
	m := newMetrics()
	m.jobAccepted()
	m.jobAccepted()
	m.jobStarted(2 * time.Millisecond)
	m.jobFinished(false, 200*time.Millisecond)
	m.jobPanicked()
	m.jobRejected()
	m.campaignFinished(results.NewCampaign(results.Campaign{
		Totals: results.CampaignCounts{Injected: 10, DetectedUnmappedRPC: 6,
			DetectedIllegal: 2, Crashes: 1, SDC: 1}}))
	m.campaignFinished(results.NewAttack(results.Attack{
		Totals: results.AttackCounts{ChainsBuilt: 7, ChainsFired: 6,
			Successes: 2, BlockedRPC: 3, BlockedIllegal: 1, Leaks: 55,
			CodePages: 40, MapPages: 15, Rerandomizations: 9}}))

	// The realbin counters are process-wide and refreshed into the metrics
	// mirror at render time. Lift a fixture so they are provably nonzero,
	// then snapshot: the server package runs no parallel tests, so the
	// render sees exactly this snapshot.
	if _, err := realbin.Load(fixtures.Fib, "fib.elf"); err != nil {
		t.Fatal(err)
	}
	snap := realbin.TotalsSnapshot()
	if snap.BinariesLifted == 0 {
		t.Fatal("realbin totals not accumulating")
	}

	var b strings.Builder
	m.render(&b, 1, 8, cacheStats{appHits: 5, appMisses: 2})
	out := b.String()

	want := []string{
		"# HELP vcfrd_jobs_accepted_total Jobs admitted to the queue.\n" +
			"# TYPE vcfrd_jobs_accepted_total counter\n" +
			"vcfrd_jobs_accepted_total 2\n",
		"vcfrd_jobs_rejected_total 1\n",
		"# TYPE vcfrd_jobs_state gauge\n" +
			"vcfrd_jobs_state{state=\"queued\"} 1\n" +
			"vcfrd_jobs_state{state=\"running\"} 0\n" +
			"vcfrd_jobs_state{state=\"done\"} 0\n" +
			"vcfrd_jobs_state{state=\"failed\"} 1\n",
		"vcfrd_job_panics_total 1\n",
		"vcfrd_queue_depth 1\n",
		"vcfrd_queue_capacity 8\n",
		"vcfrd_app_memo_hits_total 5\n",
		"vcfrd_app_memo_misses_total 2\n",
		"vcfrd_fault_campaigns_total 1\n",
		"vcfrd_fault_injected_total 10\n",
		"vcfrd_fault_detected_unmapped_rpc_total 6\n",
		"vcfrd_fault_detected_illegal_instruction_total 2\n",
		"vcfrd_fault_crashes_total 1\n",
		"vcfrd_fault_sdc_total 1\n",
		"vcfrd_fault_masked_total 0\n",
		"vcfrd_fault_hangs_total 0\n",
		"vcfrd_attack_campaigns_total 1\n",
		"vcfrd_attack_chains_built_total 7\n",
		"vcfrd_attack_chains_fired_total 6\n",
		"vcfrd_attack_success_total 2\n",
		"vcfrd_attack_blocked_unmapped_rpc_total 3\n",
		"vcfrd_attack_blocked_illegal_instruction_total 1\n",
		"vcfrd_attack_crashed_total 0\n",
		"vcfrd_attack_no_effect_total 0\n",
		"vcfrd_attack_leaks_total 55\n",
		"vcfrd_attack_pages_code_total 40\n",
		"vcfrd_attack_pages_map_total 15\n",
		"vcfrd_attack_rerandomizations_total 9\n",
		"# HELP vcfrd_realbin_binaries_lifted_total ELF binaries lifted to VX images.\n" +
			"# TYPE vcfrd_realbin_binaries_lifted_total counter\n" +
			fmt.Sprintf("vcfrd_realbin_binaries_lifted_total %d\n", snap.BinariesLifted),
		fmt.Sprintf("vcfrd_realbin_instructions_lifted_total %d\n", snap.InstructionsLifted),
		fmt.Sprintf("vcfrd_realbin_blocks_recovered_total %d\n", snap.BlocksRecovered),
		fmt.Sprintf("vcfrd_realbin_landing_pads_total %d\n", snap.LandingPads),
		fmt.Sprintf("vcfrd_realbin_unresolved_indirects_total %d\n", snap.UnresolvedIndirects),
		fmt.Sprintf("vcfrd_realbin_refused_binaries_total %d\n", snap.RefusedBinaries),
		fmt.Sprintf("vcfrd_realbin_refused_functions_total %d\n", snap.RefusedFunctions),
		"# TYPE vcfrd_stage_seconds histogram\n",
	}
	pos := 0
	for _, w := range want {
		i := strings.Index(out[pos:], w)
		if i < 0 {
			t.Fatalf("exposition missing (or out of order) %q\nfull output:\n%s", w, out)
		}
		pos += i + len(w)
	}
}
