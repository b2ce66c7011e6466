package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vcfr/internal/results"
)

// postWithHeaders is post with extra request headers.
func postWithHeaders(t *testing.T, s *Server, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

func acceptedID(t *testing.T, body []byte) string {
	t.Helper()
	var acc struct{ ID string }
	if err := json.Unmarshal(body, &acc); err != nil || acc.ID == "" {
		t.Fatalf("bad 202 body: %s", body)
	}
	return acc.ID
}

// swapExec replaces the server's executor with one that finishes instantly
// with a tiny envelope, for tests about lifecycle plumbing rather than
// simulation.
func swapExec(s *Server) {
	s.exec = func(ctx context.Context, j *Job) (results.Envelope, error) {
		return results.NewRun(results.Run{Workload: j.Req.Workload, Mode: "vcfr", Seed: 1}), nil
	}
}

// TestJobDeleteMidSweep cancels a running sweep through DELETE and pins the
// contract: DELETE answers 200 with the settled job's status view, and
// /result then serves the partial-rows envelope — the rows that finished
// plus error rows for the cells cancellation reached first.
func TestJobDeleteMidSweep(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, body := post(t, s, "/v1/jobs", `{"kind": "sweep", "workloads": ["bzip2", "sjeng", "xalan"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := acceptedID(t, body)

	// Wait for the job to leave the queue so cancellation lands mid-sweep.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, b := get(t, s, "/v1/jobs/"+id)
		var v jobView
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == JobRunning {
			break
		}
		if v.State == JobDone || v.State == JobFailed {
			t.Skip("sweep finished before it could be cancelled; nothing to test")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	dbody, err := io.ReadAll(dresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d: %.300s", dresp.StatusCode, dbody)
	}
	// The job settles as done (partial rows are a result, not a failure),
	// and DELETE waited for that before answering.
	var v jobView
	if err := json.Unmarshal(dbody, &v); err != nil {
		t.Fatalf("DELETE body is not a status view: %v", err)
	}
	if v.ID != id || v.State != JobDone {
		t.Errorf("DELETE view = %s %s, want %s done", v.ID, v.State, id)
	}
	env, err := results.Unmarshal(jobResult(t, s, id))
	if err != nil {
		t.Fatalf("result after DELETE is not an envelope: %v", err)
	}
	if env.Kind != results.KindSweep || env.Sweep == nil {
		t.Fatalf("result kind = %s, want sweep", env.Kind)
	}
	if !env.Sweep.Partial {
		t.Error("cancelled sweep not marked partial")
	}
	cancelled := 0
	for _, r := range env.Sweep.Rows {
		if r.Failed() {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("cancelled sweep has no error rows")
	}

	// Unknown ids 404 with the shared envelope.
	req, _ = http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/job-999999", nil)
	nresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", nresp.StatusCode)
	}
}

// TestJobEventsStream subscribes to a job's SSE feed and requires the
// terminal event; a finished job answers immediately, an unknown id 404s.
func TestJobEventsStream(t *testing.T) {
	s := startServer(t, Config{Workers: 2, QueueDepth: 8})
	swapExec(s)
	resp, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	id := acceptedID(t, body)
	pollJob(t, s, id)

	sresp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, ev)
		}
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Errorf("event sequence = %v, want ... done", events)
	}

	if r, _ := get(t, s, "/v1/jobs/job-999999/events"); r.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", r.StatusCode)
	}
}

// TestRetryAfterFromDrainRate pins the 429 contract: once the server has
// observed job durations, a refusal's Retry-After derives from the queue
// depth over the drain rate and the body reports the queue state.
func TestRetryAfterFromDrainRate(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := startServer(t, Config{Workers: 1, QueueDepth: 1})
	swapExec(s)

	// Give the histogram one observation so the derived path is taken.
	_, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`)
	pollJob(t, s, acceptedID(t, body))

	s.exec = blockingExec(started, release)
	defer close(release)
	if resp, b := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d: %s", resp.StatusCode, b)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job 1 never started")
	}
	if resp, b := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d: %s", resp.StatusCode, b)
	}
	resp, body := post(t, s, "/v1/jobs", `{"kind": "run", "workload": "bzip2"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second estimate", ra)
	}
	var refusal struct {
		Error             struct{ Code, Message string }
		QueueDepth        int `json:"queue_depth"`
		QueueCapacity     int `json:"queue_capacity"`
		RetryAfterSeconds int `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &refusal); err != nil {
		t.Fatalf("429 body: %v: %s", err, body)
	}
	if refusal.Error.Code != "queue_full" || refusal.QueueCapacity != 1 || refusal.RetryAfterSeconds < 1 {
		t.Errorf("429 body = %+v: %s", refusal, body)
	}
}
