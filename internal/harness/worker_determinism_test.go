package harness

import (
	"bytes"
	"context"
	"testing"

	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// TestStatsSweepWorkerDeterminism pins scheduling-independence across the
// block-cached execution path: a stats sweep over all 11 analogs plus the
// lifted real-binary fixtures must serialize byte-identically whether cells
// run sequentially on one worker or concurrently on eight. Each cell's
// pipeline (and its block cache) is private, so any divergence means shared
// mutable state leaked between concurrently executing cells.
func TestStatsSweepWorkerDeterminism(t *testing.T) {
	cfg := Config{MaxInsts: 30_000, Scale: 1, Seed: 42, Spread: 8,
		Workloads: append(append([]string{}, workloads.SpecNames...), workloads.ELFNames()...)}
	run := func(workers int) []byte {
		rows, err := StatsSweepProgress(context.Background(), NewRunner(workers), cfg, nil)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for _, r := range rows {
			if r.Failed() {
				t.Fatalf("%d workers: cell %s/%s failed: %s", workers, r.Workload, r.Mode, r.Error)
			}
		}
		raw, err := results.Marshal(results.NewSweep(rows))
		if err != nil {
			t.Fatalf("%d workers: marshal: %v", workers, err)
		}
		return raw
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("sweep envelopes diverge between 1 and 8 workers:\n%s",
			firstDiff(serial, parallel))
	}
}
