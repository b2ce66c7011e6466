package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"vcfr/internal/jobs"
)

// JobRequest is the body of POST /v1/jobs: the kind discriminator plus the
// selected kind's parameters.
type JobRequest struct {
	// Kind selects the computation; jobs.ParseKind lists the kinds.
	Kind string `json:"kind"`
	jobs.Request
}

// handleJobs is the unified submission endpoint: every kind, one route, one
// body shape, always asynchronous (202 + job id; synchronous callers keep
// POST /v1/simulate).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var jr JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jr); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	kind, err := jobs.ParseKind(jr.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	req := jr.Request
	if err := req.Normalize(kind); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	s.submitAsync(w, r, kind, req)
}

// submitAsync enqueues one asynchronous job and answers 202. When the
// request carries an Idempotency-Key, concurrent and retried submissions
// with the same key collapse onto one job: the key table is checked and
// claimed under one lock, so of 8 identical concurrent POSTs exactly one
// enqueues and 7 replay its id (marked with Idempotency-Replayed: true).
func (s *Server) submitAsync(w http.ResponseWriter, r *http.Request, kind jobs.Kind, req jobs.Request) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		j := s.newJob(kind, req)
		if err := s.enqueue(j); err != nil {
			s.writeRefusal(w, err)
			return
		}
		writeAccepted(w, j, false)
		return
	}

	s.idemMu.Lock()
	if id, ok := s.idem[key]; ok {
		s.jobMu.Lock()
		j, live := s.jobs[id]
		s.jobMu.Unlock()
		if live {
			s.idemMu.Unlock()
			writeAccepted(w, j, true)
			return
		}
		// The original job aged out of retention; the key is dead and the
		// request runs fresh.
		delete(s.idem, key)
	}
	// Claim the key before releasing idemMu so a concurrent duplicate
	// can't slip past the check; enqueue only takes leaf locks, so holding
	// idemMu across it is deadlock-free (retireJob takes idemMu only after
	// releasing jobMu).
	j := s.newJob(kind, req)
	j.idemKey = key
	if err := s.enqueue(j); err != nil {
		s.idemMu.Unlock()
		s.writeRefusal(w, err)
		return
	}
	s.idem[key] = j.ID
	s.idemMu.Unlock()
	writeAccepted(w, j, false)
}

func writeAccepted(w http.ResponseWriter, j *Job, replayed bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"id":     j.ID,
		"kind":   string(j.Kind),
		"state":  string(j.State()),
		"status": "/v1/jobs/" + j.ID,
	})
}

// jobSummary is one row of GET /v1/jobs — the lifecycle facts without the
// result payload.
type jobSummary struct {
	ID       string     `json:"id"`
	Kind     jobs.Kind  `json:"kind"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// handleJobsList pages over every job the server still remembers (queued,
// running, and finished-within-retention), ordered by submission. The
// cursor is the last-seen job id; because ids are monotonic and eviction
// only removes the oldest, a cursor stays valid even after the job it
// names is evicted — pagination never skips or repeats a surviving job.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	stateFilter := JobState(q.Get("state"))
	switch stateFilter {
	case "", JobQueued, JobRunning, JobDone, JobFailed:
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			"unknown state %q (want queued, running, done, or failed)", stateFilter)
		return
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			writeError(w, http.StatusBadRequest, "bad_request", "limit must be 1..1000")
			return
		}
		limit = n
	}
	var afterSeq uint64
	if cur := q.Get("cursor"); cur != "" {
		n, err := parseJobSeq(cur)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad cursor %q", cur)
			return
		}
		afterSeq = n
	}

	s.jobMu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	s.jobMu.Unlock()
	sort.Slice(all, func(i, k int) bool { return all[i].seq < all[k].seq })

	type listResponse struct {
		Jobs       []jobSummary `json:"jobs"`
		NextCursor string       `json:"next_cursor,omitempty"`
	}
	resp := listResponse{Jobs: []jobSummary{}}
	for _, j := range all {
		if j.seq <= afterSeq {
			continue
		}
		v := j.view()
		if stateFilter != "" && v.State != stateFilter {
			continue
		}
		if len(resp.Jobs) == limit {
			// One more match exists past the page: point the cursor at the
			// last included job.
			resp.NextCursor = resp.Jobs[limit-1].ID
			break
		}
		resp.Jobs = append(resp.Jobs, jobSummary{
			ID: v.ID, Kind: v.Kind, State: v.State,
			Created: v.Created, Finished: v.Finished, Error: v.Error,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// parseJobSeq recovers the monotonic sequence number from a job id
// ("job-%06d"; numbers past a million simply widen).
func parseJobSeq(id string) (uint64, error) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, fmt.Errorf("not a job id")
	}
	return strconv.ParseUint(num, 10, 64)
}

// handleJobDelete cancels a job via its context — mid-simulation
// cancellation is real (Pipeline.RunContext checks the deadline in the hot
// loop), so a running sweep or campaign stops at the next cell boundary and
// reports the rows it finished — then answers with the partial-rows
// envelope once the job settles.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobMu.Lock()
	j, ok := s.jobs[id]
	s.jobMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", id)
		return
	}
	j.cancel()
	select {
	case <-j.Done():
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, "client_cancelled",
			"client went away while job %s was being cancelled", id)
		return
	}
	body, errMsg := j.Envelope()
	if errMsg != "" {
		writeError(w, http.StatusInternalServerError, "job_failed", "%s", errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-Id", j.ID)
	_, _ = w.Write(body)
}

// handleJobEvents streams a job's life as Server-Sent Events: a "state"
// event on subscribe, coalesced "progress" events while it runs (latest
// wins — a slow client skips intermediate updates instead of buffering
// them), and a terminal "done" or "failed" event. The result payload is
// not inlined; clients follow up with GET /v1/jobs/{id}/result, which is
// the byte-identity-preserving path.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobMu.Lock()
	j, ok := s.jobs[id]
	s.jobMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal", "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch := j.subscribe()
	defer j.unsubscribe(ch)

	writeSSE(w, "state", map[string]string{"id": j.ID, "state": string(j.State())})
	fl.Flush()
	for {
		select {
		case p := <-ch:
			writeSSE(w, "progress", p)
			fl.Flush()
		case <-j.Done():
			// Flush any progress update that raced the finish, then the
			// terminal event.
			select {
			case p := <-ch:
				writeSSE(w, "progress", p)
			default:
			}
			_, errMsg := j.Envelope()
			terminal := map[string]string{"id": j.ID, "state": string(j.State())}
			event := "done"
			if errMsg != "" {
				event = "failed"
				terminal["error"] = errMsg
			}
			writeSSE(w, event, terminal)
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w io.Writer, event string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}
