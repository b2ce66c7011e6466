package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// TestELFJobMatchesCLI is the real-binary front end's service acceptance: a
// kind=run job over a lifted fixture must store the exact bytes
// `vcfrsim -workload elf-fib -mode all -seed 42 -stats-json` prints — the
// registry serves the lifted image to both producers, and both run the
// identical harness path.
func TestELFJobMatchesCLI(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body := post(t, s, "/v1/jobs",
		`{"kind": "run", "workload": "elf-fib", "mode": "all", "seed": 42}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d: %s", resp.StatusCode, body)
	}
	id := acceptedID(t, body)
	if v := pollJob(t, s, id); v.State != JobDone {
		t.Fatalf("elf job failed: %s", v.Error)
	}
	rresp, got := get(t, s, "/v1/jobs/"+id+"/result")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", rresp.StatusCode, got)
	}

	modes := []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}
	cfg := harness.Config{Scale: 1, Seed: 42, Spread: 8}
	rows, err := harness.SimulateRuns(context.Background(), harness.NewRunner(1), "elf-fib", modes, cfg,
		func(c *cpu.Config) { c.DRCEntries = 128; c.IssueWidth = 1; c.ContextSwitchEvery = 0 })
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Marshal(results.NewRun(rows...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("job result differs from CLI bytes:\n--- service ---\n%.400s\n--- cli ---\n%.400s", got, want)
	}
}

// TestWorkloadsEndpointSource pins the /v1/workloads listing contract: every
// entry carries a source field, the embedded ELF fixtures are listed with
// source "elf", and the synthetic analogs with source "synthetic" — the same
// name/source/desc triple `vcfrsim -list` prints. The listing reads the
// registry tables without building anything, so each entry is checked
// against the workload ByName builds.
func TestWorkloadsEndpointSource(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, body := get(t, s, "/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/workloads: %d: %s", resp.StatusCode, body)
	}
	var entries []struct {
		Name   string `json:"name"`
		Desc   string `json:"desc"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatalf("bad listing: %v\n%s", err, body)
	}
	got := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.Source != workloads.SourceSynthetic && e.Source != workloads.SourceELF {
			t.Errorf("%s: source = %q, want %q or %q",
				e.Name, e.Source, workloads.SourceSynthetic, workloads.SourceELF)
		}
		if e.Desc == "" {
			t.Errorf("%s: empty desc", e.Name)
		}
		wl, err := workloads.ByName(e.Name, 1)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.Desc != wl.Desc || e.Source != wl.Source {
			t.Errorf("%s: listed (%q, %q), ByName has (%q, %q)", e.Name, e.Desc, e.Source, wl.Desc, wl.Source)
		}
		got[e.Name] = e.Source
	}
	for _, n := range workloads.ELFNames() {
		if got[n] != workloads.SourceELF {
			t.Errorf("fixture %s: source = %q, want %q", n, got[n], workloads.SourceELF)
		}
	}
	if got["bzip2"] != workloads.SourceSynthetic {
		t.Errorf("bzip2: source = %q, want %q", got["bzip2"], workloads.SourceSynthetic)
	}
}
