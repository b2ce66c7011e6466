package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vcfr/internal/attack"
	"vcfr/internal/cpu"
	"vcfr/internal/fault"
	"vcfr/internal/harness"
	"vcfr/internal/multicore"
	"vcfr/internal/results"
)

// startServer builds and starts a server on an ephemeral port, cleaning it
// up when the test ends.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func post(t *testing.T, s *Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+s.Addr()+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, s *Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// runResult submits body to POST /v1/jobs, waits for the job to settle,
// and returns the answer of GET /v1/jobs/{id}/result with the job's id.
func runResult(t *testing.T, s *Server, body string) (*http.Response, []byte, string) {
	t.Helper()
	resp, b := post(t, s, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs %s: %d: %s", body, resp.StatusCode, b)
	}
	id := acceptedID(t, b)
	pollJob(t, s, id)
	resp, b = get(t, s, "/v1/jobs/"+id+"/result")
	return resp, b, id
}

// TestSimulateMatchesCLI is the acceptance criterion of the API redesign: a
// kind "run" job's /result body must be byte-identical to what
// `vcfrsim -stats-json` prints for the same (workload, mode, seed, config).
// The CLI's JSON path is harness.SimulateRuns + results.Marshal, so the
// test computes those bytes directly and compares.
func TestSimulateMatchesCLI(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body, _ := runResult(t, s,
		`{"kind": "run", "workload": "h264ref", "mode": "all", "instructions": 30000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run result: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}

	// The CLI equivalent: vcfrsim -workload h264ref -mode all
	// -instructions 30000 -stats-json (defaults: seed 1, spread 8,
	// drc 128, width 1).
	modes := []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}
	cfg := harness.Config{Scale: 1, MaxInsts: 30000, Seed: 1, Spread: 8}
	rows, err := harness.SimulateRuns(context.Background(), harness.NewRunner(1), "h264ref", modes, cfg,
		func(c *cpu.Config) { c.DRCEntries = 128; c.IssueWidth = 1; c.ContextSwitchEvery = 0 })
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Marshal(results.NewRun(rows...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("service response differs from CLI bytes:\n--- service ---\n%.400s\n--- cli ---\n%.400s", body, want)
	}
}

// TestRepeatedQueryReusesApp locks the shared-runner behavior: a second
// request that changes only a timing knob (DRC size) executes again, answers
// byte-identically to SimulateRuns, and reuses the first request's prepared
// app — the memo's hit counter moves, its miss counter does not.
func TestRepeatedQueryReusesApp(t *testing.T) {
	r := harness.NewRunner(0)
	s := startServer(t, Config{Workers: 2, QueueDepth: 8, Runner: r})

	body := `{"kind": "run", "workload": "lbm", "mode": "vcfr", "instructions": 30000}`
	if resp, b, _ := runResult(t, s, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d: %s", resp.StatusCode, b)
	}
	hits0, misses0 := r.AppMemoStats()
	if misses0 == 0 {
		t.Fatal("first request did not prepare an app")
	}

	timingOnly := `{"kind": "run", "workload": "lbm", "mode": "vcfr", "instructions": 30000, "drc": 64}`
	resp, got, _ := runResult(t, s, timingOnly)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d: %s", resp.StatusCode, got)
	}
	hits1, misses1 := r.AppMemoStats()
	if hits1 <= hits0 {
		t.Errorf("timing-only repeat missed the app memo (hits %d -> %d)", hits0, hits1)
	}
	if misses1 != misses0 {
		t.Errorf("timing-only repeat rebuilt the app (misses %d -> %d)", misses0, misses1)
	}

	cfg := harness.Config{Scale: 1, MaxInsts: 30000, Seed: 1, Spread: 8}
	rows, err := harness.SimulateRuns(context.Background(), harness.NewRunner(1), "lbm", []cpu.Mode{cpu.ModeVCFR}, cfg,
		func(c *cpu.Config) { c.DRCEntries = 64; c.IssueWidth = 1; c.ContextSwitchEvery = 0 })
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Marshal(results.NewRun(rows...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("timing-only repeat differs from SimulateRuns:\n--- service ---\n%.400s\n--- direct ---\n%.400s", got, want)
	}

	// The /metrics endpoint must surface the same counters.
	_, metricsBody := get(t, s, "/metrics")
	wantMetric := fmt.Sprintf("vcfrd_app_memo_hits_total %d", hits1)
	if !strings.Contains(string(metricsBody), wantMetric) {
		t.Errorf("/metrics missing %q", wantMetric)
	}
}

// TestRepeatedJobsReuseApps: a repeated sweep job and a repeated attacks
// job on one runner take every prepared app from the memo. The repeat adds
// one hit per workload and no miss, and answers with the same bytes.
func TestRepeatedJobsReuseApps(t *testing.T) {
	r := harness.NewRunner(0)
	s := startServer(t, Config{Workers: 2, QueueDepth: 8, Runner: r})
	for _, c := range []struct {
		kind, body string
		apps       uint64
	}{
		{"sweep", `{"kind": "sweep", "workloads": ["lbm", "h264ref"], "instructions": 20000}`, 2},
		{"attacks", `{"kind": "attacks", "workloads": ["bzip2"], "mode": "vcfr", "payloads": ["print-and-exit"]}`, 1},
	} {
		resp, first, _ := runResult(t, s, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first %s: %d: %s", c.kind, resp.StatusCode, first)
		}
		hits0, misses0 := r.AppMemoStats()
		resp, again, _ := runResult(t, s, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeated %s: %d: %s", c.kind, resp.StatusCode, again)
		}
		hits1, misses1 := r.AppMemoStats()
		if hits1-hits0 != c.apps || misses1 != misses0 {
			t.Errorf("repeated %s: app memo +%d hits, +%d misses; want +%d, +0",
				c.kind, hits1-hits0, misses1-misses0, c.apps)
		}
		if !bytes.Equal(first, again) {
			t.Errorf("repeated %s answered differently:\n--- first ---\n%.400s\n--- again ---\n%.400s", c.kind, first, again)
		}
	}
}

// blockingExec returns a job executor that signals when a job starts and
// holds it until released, letting tests pin the queue in known states.
func blockingExec(started chan<- string, release <-chan struct{}) func(context.Context, *Job) (results.Envelope, error) {
	return func(ctx context.Context, j *Job) (results.Envelope, error) {
		started <- j.ID
		select {
		case <-release:
			return results.NewRun(results.Run{Workload: j.Req.Workload}), nil
		case <-ctx.Done():
			return results.Envelope{}, ctx.Err()
		}
	}
}

// TestBackpressure429 fills the queue and asserts the service refuses with
// 429 + Retry-After instead of buffering unboundedly — and recovers once
// the queue drains.
func TestBackpressure429(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := startServer(t, Config{Workers: 1, QueueDepth: 1})
	s.exec = blockingExec(started, release)

	// Job 1 occupies the single worker; wait until it is actually running
	// so job 2 deterministically sits in the queue.
	if resp, b := post(t, s, "/v1/jobs", `{"kind": "sweep"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d: %s", resp.StatusCode, b)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job 1 never started")
	}
	if resp, b := post(t, s, "/v1/jobs", `{"kind": "sweep"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d: %s", resp.StatusCode, b)
	}

	// Queue (depth 1) is full: job 3 must bounce with backpressure.
	resp, body := post(t, s, "/v1/jobs", `{"kind": "sweep"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// A run job hits the same bound.
	if resp, _ := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "lbm"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("run under full queue: %d, want 429", resp.StatusCode)
	}

	// Bounced jobs must leave no trace in the accounting: only jobs 1 and 2
	// were admitted, and both rejections counted.
	_, metricsBody := get(t, s, "/metrics")
	for _, want := range []string{"vcfrd_jobs_accepted_total 2", "vcfrd_jobs_rejected_total 2"} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q after rollback", want)
		}
	}

	close(release)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job 2 never started after release")
	}
	// Once the queue drains, intake works again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := post(t, s, "/v1/jobs", `{"kind": "sweep"}`)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never recovered after drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDrains locks the graceful-termination contract the SIGTERM
// path relies on: Shutdown refuses new work but every accepted job runs to
// completion before Shutdown returns.
func TestShutdownDrains(t *testing.T) {
	started := make(chan string, 2)
	release := make(chan struct{})
	s := New(Config{Addr: "127.0.0.1:0", Workers: 1, QueueDepth: 4})
	s.exec = blockingExec(started, release)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, s, "/v1/jobs", `{"kind": "sweep"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct{ ID string }
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must be blocked on the in-flight job, not bailing early.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while a job was still running", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after the job finished")
	}

	s.jobMu.Lock()
	j := s.jobs[accepted.ID]
	s.jobMu.Unlock()
	if j == nil || j.State() != JobDone {
		t.Fatalf("drained job state = %v, want done", j.State())
	}
	// The drained job kept its envelope, the bytes /result would serve.
	if body, _ := j.Envelope(); len(body) == 0 {
		t.Error("drained job has no result envelope")
	}
}

// TestFinishedJobRetention proves completed jobs do not accumulate for the
// life of the process: past the retention bound the oldest-finished jobs
// (and their result envelopes) are evicted from /v1/jobs/{id}, while the
// newest stay pollable.
func TestFinishedJobRetention(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 4, JobRetention: 2})
	s.exec = func(ctx context.Context, j *Job) (results.Envelope, error) {
		return results.NewRun(results.Run{Workload: j.Req.Workload}), nil
	}

	var ids []string
	for i := 0; i < 4; i++ {
		resp, body, id := runResult(t, s, `{"kind": "run", "workload": "lbm"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d: %s", i, resp.StatusCode, body)
		}
		ids = append(ids, id)
	}

	// The last job's retirement (which evicts ids[1]) may still be racing
	// the response; poll for the eviction instead of asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp0, _ := get(t, s, "/v1/jobs/"+ids[0])
		resp1, _ := get(t, s, "/v1/jobs/"+ids[1])
		if resp0.StatusCode == http.StatusNotFound && resp1.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oldest jobs not evicted: %s=%d %s=%d, want 404s", ids[0], resp0.StatusCode, ids[1], resp1.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids[2:] {
		if resp, _ := get(t, s, "/v1/jobs/"+id); resp.StatusCode != http.StatusOK {
			t.Errorf("recent job %s: %d, want 200 (still within retention)", id, resp.StatusCode)
		}
	}
}

// TestRequestValidation locks the 400 surface: bad bodies, unknown fields,
// unknown workloads and modes are rejected before touching the queue.
func TestRequestValidation(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 2})
	swapExec(s)
	for _, tc := range []struct{ name, body string }{
		{"no workload", `{"kind": "run"}`}, // a run requires a workload
		{"unknown workload", `{"kind": "run", "workload": "doom"}`},
		{"unknown mode", `{"kind": "run", "workload": "lbm", "mode": "quantum"}`},
		{"unknown field", `{"kind": "run", "workload": "lbm", "turbo": true}`},
		{"negative timeout", `{"kind": "run", "workload": "lbm", "timeout_ms": -5}`},
		{"not json", `drop table jobs`},
		// Sizes a campaign would allocate while planning, before any
		// deadline can act.
		{"injections over cap", `{"kind": "faults", "injections": 1000000000000}`},
		{"too many cells", `{"kind": "multicore", "cells": ["1c1t","1c2t","1c3t","1c4t","1c5t","1c6t","1c7t","1c8t","1c9t","1c10t","1c11t","1c12t","1c13t","1c14t","1c15t","1c16t","1c17t"]}`},
		{"cell over 64 tenants", `{"kind": "multicore", "cells": ["1c100000000t"]}`},
		{"cell over 64 cores", `{"kind": "multicore", "cells": ["65c1t"]}`},
		{"duplicate workload", `{"kind": "sweep", "workloads": ["bzip2", "bzip2"]}`},
		{"duplicate fault", `{"kind": "faults", "faults": ["branch-target", " branch-target"]}`},
		{"duplicate payload", `{"kind": "attacks", "payloads": ["print-and-exit", "print-and-exit"]}`},
		{"duplicate cell", `{"kind": "multicore", "cells": ["1c2t", "1c2t"]}`},
	} {
		if resp, b := post(t, s, "/v1/jobs", tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d (%s), want 400", tc.name, resp.StatusCode, b)
		}
	}
	// The unified endpoint rejects a missing and an unknown kind with the
	// structured error envelope every handler shares.
	for _, bad := range []string{`{}`, `{"kind": "exfiltrate"}`} {
		resp, body := post(t, s, "/v1/jobs", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad kind accepted: %d: %s", resp.StatusCode, body)
		}
		var e struct {
			Error struct{ Code, Message string }
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "bad_request" || e.Error.Message == "" {
			t.Errorf("error envelope = %s, want {error:{code:bad_request,...}}", body)
		}
	}
	// A body past the 1 MiB cap is refused with 413. The padding is valid
	// JSON whitespace, so only the size is wrong.
	pad := strings.Repeat(" ", maxBodyBytes)
	resp, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "lbm"`+pad+`}`)
	var e struct {
		Error struct{ Code, Message string }
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(body, &e) != nil ||
		e.Error.Code != "body_too_large" || e.Error.Message != "request body exceeds 1048576 bytes" {
		t.Errorf("oversized body: %d (%s), want 413 body_too_large", resp.StatusCode, body)
	}
	if resp, _ := get(t, s, "/v1/jobs/job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	// Routes that are no longer served — the per-kind submission routes
	// that predate /v1/jobs, the synchronous simulate route, the job
	// listing, and the artifact exchange — fall through to the mux's 404
	// or 405, never to a handler.
	for _, tc := range []struct{ method, route string }{
		{http.MethodPost, "simulate"},
		{http.MethodGet, "jobs"},
		{http.MethodPost, "sweep"},
		{http.MethodPost, "faults"},
		{http.MethodPost, "attacks"},
		{http.MethodGet, "artifacts/trace/0123"},
		{http.MethodPut, "artifacts/trace/0123"},
	} {
		req, err := http.NewRequest(tc.method, "http://"+s.Addr()+"/v1/"+tc.route, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /v1/%s: %d, want 404 or 405", tc.method, tc.route, resp.StatusCode)
		}
	}
	// Idempotency-Key carries no meaning: two POSTs with the same key are
	// two jobs.
	run := `{"kind": "run", "workload": "lbm"}`
	key := map[string]string{"Idempotency-Key": "same-key"}
	resp1, body1 := postWithHeaders(t, s, "/v1/jobs", run, key)
	resp2, body2 := postWithHeaders(t, s, "/v1/jobs", run, key)
	if resp1.StatusCode != http.StatusAccepted || resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("keyed submits: %d, %d; want 202, 202", resp1.StatusCode, resp2.StatusCode)
	}
	if id1, id2 := acceptedID(t, body1), acceptedID(t, body2); id1 == id2 {
		t.Errorf("two POSTs with one Idempotency-Key shared job %s", id1)
	}
}

// TestPanicIsolation proves one panicking job fails alone: the worker
// survives and the next job on the same worker completes.
func TestPanicIsolation(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 4})
	boom := true
	s.exec = func(ctx context.Context, j *Job) (results.Envelope, error) {
		if boom {
			boom = false
			panic("simulated defect")
		}
		return results.NewRun(results.Run{Workload: j.Req.Workload}), nil
	}

	run := `{"kind": "run", "workload": "lbm"}`
	if resp, b, _ := runResult(t, s, run); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job: %d (%s), want 500", resp.StatusCode, b)
	}
	if resp, b, _ := runResult(t, s, run); resp.StatusCode != http.StatusOK {
		t.Fatalf("job after panic: %d (%s), want 200 from the same worker", resp.StatusCode, b)
	}
	_, metricsBody := get(t, s, "/metrics")
	if !strings.Contains(string(metricsBody), "vcfrd_job_panics_total 1") {
		t.Error("/metrics does not count the panic")
	}
}

// TestJobEndpointLifecycle follows an async sweep from 202 through done and
// checks the result envelope parses under the pinned schema.
func TestJobEndpointLifecycle(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, body := post(t, s, "/v1/jobs", `{"kind": "sweep", "workloads": ["lbm"], "instructions": 20000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, body)
	}
	var accepted struct{ ID string }
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	v := pollJob(t, s, accepted.ID)
	if v.State != JobDone {
		t.Fatalf("job failed: %s", v.Error)
	}
	// The status view carries the lifecycle only; the envelope is served
	// by /result alone.
	if _, b := get(t, s, "/v1/jobs/"+accepted.ID); bytes.Contains(b, []byte(`"result"`)) {
		t.Errorf("status view embeds the result: %.300s", b)
	}
	env, err := results.Unmarshal(jobResult(t, s, accepted.ID))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != results.KindSweep || len(env.Sweep.Rows) != 3 {
		t.Errorf("sweep result: kind=%s rows=%d, want sweep with 3 rows (1 workload x 3 modes)", env.Kind, len(env.Sweep.Rows))
	}
	// The sweep reported live progress through the spine; the final view
	// retains the last report: all cells done, instructions accumulated.
	if v.Progress == nil {
		t.Fatal("finished sweep has no progress")
	}
	if v.Progress.CellsDone != 1 || v.Progress.CellsTotal != 1 || v.Progress.Instructions == 0 {
		t.Errorf("final progress = %+v, want 1/1 cells with nonzero instructions", *v.Progress)
	}
}

// jobResult reads a done job's envelope from GET /v1/jobs/{id}/result.
func jobResult(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	resp, body := get(t, s, "/v1/jobs/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s result: %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// pollJob waits for a job to leave the running states and returns its final
// view.
func pollJob(t *testing.T, s *Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var v jobView
	for {
		_, b := get(t, s, "/v1/jobs/"+id)
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == JobDone || v.State == JobFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFaultsEndpointLifecycle follows a fault campaign from 202 through done
// and pins the acceptance criterion for the service surface: the finished
// result must be byte-identical to what fault.RunCampaign emits for the same
// config (the entry point `experiments -mode faults -stats-json` drives).
func TestFaultsEndpointLifecycle(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, body := post(t, s, "/v1/jobs",
		`{"kind": "faults", "workloads": ["bzip2"], "mode": "vcfr", "injections": 10, "instructions": 5000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("faults: %d: %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var accepted struct{ ID string }
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	v := pollJob(t, s, accepted.ID)
	if v.State != JobDone {
		t.Fatalf("campaign job failed: %s", v.Error)
	}
	if v.Progress == nil || v.Progress.CellsDone != v.Progress.CellsTotal || v.Progress.CellsDone == 0 {
		t.Errorf("final progress = %+v, want all injections done", v.Progress)
	}

	// The same campaign called directly: bzip2 under vcfr, 10 injections,
	// 5000-instruction cap (defaults: seed 42, spread 8).
	rep, err := fault.RunCampaign(context.Background(), harness.NewRunner(1), fault.Config{
		Workloads:  []string{"bzip2"},
		Modes:      []cpu.Mode{cpu.ModeVCFR},
		Injections: 10,
		MaxInsts:   5000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Marshal(rep.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	resultBody := jobResult(t, s, accepted.ID)
	if !bytes.Equal(resultBody, want) {
		t.Errorf("service campaign differs from CLI bytes:\n--- service ---\n%.600s\n--- cli ---\n%.600s", resultBody, want)
	}
	if env, err := results.Unmarshal(resultBody); err != nil || env.Kind != results.KindCampaign {
		t.Errorf("job result: kind=%v err=%v, want campaign", env.Kind, err)
	}

	// The finished campaign feeds the fault.* spine counters on /metrics.
	_, metricsBody := get(t, s, "/metrics")
	for _, wantLine := range []string{
		"vcfrd_fault_campaigns_total 1",
		fmt.Sprintf("vcfrd_fault_injected_total %d", rep.Totals.Injected),
	} {
		if !strings.Contains(string(metricsBody), wantLine) {
			t.Errorf("/metrics missing %q", wantLine)
		}
	}
}

// TestAttacksEndpointLifecycle follows an attack campaign from 202 through
// done and pins the same acceptance criterion as the faults surface: the
// finished result must be byte-identical to what attack.RunCampaign emits for
// the same config (the entry point `experiments -mode attacks -stats-json`
// drives).
func TestAttacksEndpointLifecycle(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, body := post(t, s, "/v1/jobs",
		`{"kind": "attacks", "workloads": ["bzip2"], "mode": "vcfr", "payloads": ["print-and-exit"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attacks: %d: %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var accepted struct{ ID string }
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	v := pollJob(t, s, accepted.ID)
	if v.State != JobDone {
		t.Fatalf("attack job failed: %s", v.Error)
	}
	if v.Progress == nil || v.Progress.CellsDone != v.Progress.CellsTotal || v.Progress.CellsDone == 0 {
		t.Errorf("final progress = %+v, want all cells done", v.Progress)
	}

	// The same campaign called directly: bzip2 under vcfr, payload
	// print-and-exit (defaults: seed 42, spread 8, budget 16).
	rep, err := attack.RunCampaign(context.Background(), harness.NewRunner(1), attack.Config{
		Workloads: []string{"bzip2"},
		Modes:     []cpu.Mode{cpu.ModeVCFR},
		Payloads:  []attack.Payload{attack.PayloadPrint},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Marshal(rep.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	resultBody := jobResult(t, s, accepted.ID)
	if !bytes.Equal(resultBody, want) {
		t.Errorf("service campaign differs from CLI bytes:\n--- service ---\n%.600s\n--- cli ---\n%.600s", resultBody, want)
	}
	if env, err := results.Unmarshal(resultBody); err != nil || env.Kind != results.KindAttack {
		t.Errorf("job result: kind=%v err=%v, want attack", env.Kind, err)
	}

	// The finished campaign feeds the attack.* spine counters on /metrics.
	_, metricsBody := get(t, s, "/metrics")
	for _, wantLine := range []string{
		"vcfrd_attack_campaigns_total 1",
		fmt.Sprintf("vcfrd_attack_leaks_total %d", rep.Totals.Leaks),
		fmt.Sprintf("vcfrd_attack_blocked_unmapped_rpc_total %d", rep.Totals.BlockedRPC),
	} {
		if !strings.Contains(string(metricsBody), wantLine) {
			t.Errorf("/metrics missing %q", wantLine)
		}
	}

	// Request validation rides the same vocabulary as the CLI flags.
	if resp, _ := post(t, s, "/v1/jobs", `{"kind": "attacks", "payloads": ["rootkit"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad payload accepted: %d", resp.StatusCode)
	}
	if resp, _ := post(t, s, "/v1/jobs", `{"kind": "attacks", "leak_budget": -1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative leak_budget accepted: %d", resp.StatusCode)
	}
}

// TestMulticoreEndpointLifecycle follows a multicore campaign submitted
// through the unified jobs route from 202 through done and pins the
// acceptance criterion for the service surface: the finished result must be
// byte-identical to what multicore.RunCampaign emits for the same config
// (the entry point `experiments -mode multicore -stats-json` drives).
func TestMulticoreEndpointLifecycle(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, body := post(t, s, "/v1/jobs",
		`{"kind": "multicore", "workloads": ["bzip2"], "mode": "vcfr", "cells": ["1c2t"], "quantum": 1000, "instructions": 5000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multicore: %d: %s", resp.StatusCode, body)
	}
	var accepted struct{ ID string }
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	v := pollJob(t, s, accepted.ID)
	if v.State != JobDone {
		t.Fatalf("multicore job failed: %s", v.Error)
	}
	if v.Progress == nil || v.Progress.CellsDone != v.Progress.CellsTotal || v.Progress.CellsDone == 0 {
		t.Errorf("final progress = %+v, want all units done", v.Progress)
	}

	// The same campaign called directly: bzip2 under vcfr, cell 1c2t,
	// quantum 1000, 5000-instruction cap (defaults: seed 42, spread 8).
	rep, err := multicore.RunCampaign(context.Background(), harness.NewRunner(1), multicore.Config{
		Workloads: []string{"bzip2"},
		Modes:     []cpu.Mode{cpu.ModeVCFR},
		Cells:     []multicore.Cell{{Cores: 1, Tenants: 2}},
		Quantum:   1000,
		MaxInsts:  5000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Marshal(rep.Envelope())
	if err != nil {
		t.Fatal(err)
	}
	resultBody := jobResult(t, s, accepted.ID)
	if !bytes.Equal(resultBody, want) {
		t.Errorf("service campaign differs from CLI bytes:\n--- service ---\n%.600s\n--- cli ---\n%.600s", resultBody, want)
	}
	if env, err := results.Unmarshal(resultBody); err != nil || env.Kind != results.KindMulticore {
		t.Errorf("job result: kind=%v err=%v, want multicore", env.Kind, err)
	}

	// Request validation rides the same vocabulary as the CLI flags.
	if resp, _ := post(t, s, "/v1/jobs", `{"kind": "multicore", "cells": ["2x4"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cell spec accepted: %d", resp.StatusCode)
	}
	if resp, _ := post(t, s, "/v1/jobs", `{"kind": "multicore", "workloads": ["doom"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload accepted: %d", resp.StatusCode)
	}
}

// TestFaultsBackpressureAndCancellation exercises the campaign endpoint's
// two failure surfaces: a full queue refuses with 429, and a job deadline
// mid-campaign yields a done job whose envelope is the partial coverage
// table (full row plan, unexecuted rows marked), not an error.
func TestFaultsBackpressureAndCancellation(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := startServer(t, Config{Workers: 1, QueueDepth: 1})
	realExec := s.exec
	s.exec = blockingExec(started, release)

	if resp, b := post(t, s, "/v1/jobs", `{"kind": "faults"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d: %s", resp.StatusCode, b)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job 1 never started")
	}
	if resp, b := post(t, s, "/v1/jobs", `{"kind": "faults"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d: %s", resp.StatusCode, b)
	}
	resp, body := post(t, s, "/v1/jobs", `{"kind": "faults"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
	<-started // job 2 reaches the worker, then finishes immediately

	// Queue drained; restore the real executor and run a campaign under a
	// deadline too short to execute anything.
	s.exec = realExec
	deadline := time.Now().Add(5 * time.Second)
	var accepted struct{ ID string }
	for {
		resp, body = post(t, s, "/v1/jobs",
			`{"kind": "faults", "workloads": ["bzip2"], "mode": "vcfr", "injections": 10, "timeout_ms": 1}`)
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never recovered: %d: %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	v := pollJob(t, s, accepted.ID)
	if v.State != JobDone {
		t.Fatalf("deadline-bounded campaign failed instead of returning partial rows: %s", v.Error)
	}
	env, err := results.Unmarshal(jobResult(t, s, accepted.ID))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != results.KindCampaign || env.Campaign == nil {
		t.Fatalf("result kind = %s, want campaign", env.Kind)
	}
	if !env.Campaign.Partial {
		t.Error("deadline-bounded campaign not marked partial")
	}
	if len(env.Campaign.Rows) == 0 {
		t.Fatal("partial campaign carries no rows")
	}
	errored := 0
	for _, r := range env.Campaign.Rows {
		if r.Error != "" {
			errored++
		}
	}
	if errored == 0 {
		t.Error("partial campaign has no error-marked rows")
	}
}

// TestFaultsRequestValidation locks the 400 surface of the campaign
// endpoint.
func TestFaultsRequestValidation(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 2})
	for _, tc := range []struct{ name, body string }{
		{"unknown fault kind", `{"kind": "faults", "faults": ["cosmic-ray"]}`},
		{"unknown workload", `{"kind": "faults", "workloads": ["doom"]}`},
		{"unknown mode", `{"kind": "faults", "mode": "quantum"}`},
		{"negative injections", `{"kind": "faults", "injections": -1}`},
		{"negative bits", `{"kind": "faults", "bits": -2}`},
		{"unknown field", `{"kind": "faults", "turbo": true}`},
	} {
		if resp, b := post(t, s, "/v1/jobs", tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d (%s), want 400", tc.name, resp.StatusCode, b)
		}
	}
}

// TestSimulateInterval drives the spine's interval sampling end to end over
// HTTP: a run job with "interval" set must produce rows whose per-window
// series covers the whole run.
func TestSimulateInterval(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, body, _ := runResult(t, s,
		`{"kind": "run", "workload": "lbm", "mode": "vcfr", "instructions": 30000, "interval": 10000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run result: %d: %s", resp.StatusCode, body)
	}
	env, err := results.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Run) != 1 {
		t.Fatalf("rows = %d, want 1", len(env.Run))
	}
	row := env.Run[0]
	if len(row.Intervals) < 3 {
		t.Fatalf("intervals = %d, want >= 3 (30000 instructions / 10000 window)", len(row.Intervals))
	}
	last := row.Intervals[len(row.Intervals)-1]
	if last.Instructions != row.Result.Stats.Instructions {
		t.Errorf("last interval cumulative instructions = %d, want the run total %d",
			last.Instructions, row.Result.Stats.Instructions)
	}
	var winSum uint64
	for _, iv := range row.Intervals {
		winSum += iv.WindowInstructions
	}
	if winSum != last.Instructions {
		t.Errorf("sum of window instructions = %d, want cumulative %d", winSum, last.Instructions)
	}
}
