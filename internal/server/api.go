package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"vcfr/internal/jobs"
)

// JobRequest is the body of POST /v1/jobs: the kind discriminator plus the
// selected kind's parameters.
type JobRequest struct {
	// Kind selects the computation; jobs.ParseKind lists the kinds.
	Kind string `json:"kind"`
	jobs.Request
}

// handleJobs is the one submission endpoint: every kind, one route, one
// body shape, always asynchronous (202 + job id; the envelope is read from
// GET /v1/jobs/{id}/result).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var jr JobRequest
	if !decodeBody(w, r, &jr) {
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
	j := s.newJob(kind, req)
	if err := s.enqueue(j); err != nil {
		s.writeRefusal(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"id":     j.ID,
		"kind":   string(j.Kind),
		"state":  string(j.State()),
		"status": "/v1/jobs/" + j.ID,
	})
}

// handleJobDelete cancels a job via its context — mid-simulation
// cancellation is real (Pipeline.RunContext checks the deadline in the hot
// loop), so a running sweep or campaign stops at the next cell boundary and
// keeps the rows it finished — then answers with the job's status view once
// it settles. The partial-rows envelope is read from /result.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	j.cancel()
	select {
	case <-j.Done():
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, "client_cancelled",
			"client went away while job %s was being cancelled", j.ID)
		return
	}
	writeView(w, j)
}

// handleJobEvents streams a job's life as Server-Sent Events: a "state"
// event on subscribe, coalesced "progress" events while it runs (latest
// wins — a slow client skips intermediate updates instead of buffering
// them), and a terminal "done" or "failed" event. The result payload is
// not inlined; clients follow up with GET /v1/jobs/{id}/result, which is
// the byte-identity-preserving path.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
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
