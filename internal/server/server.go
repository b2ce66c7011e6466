// Package server implements vcfrd, the long-running HTTP/JSON simulation
// service: it accepts run, sweep, and campaign jobs, runs them on a shared
// harness.Runner, and answers every request in the one versioned wire
// format of internal/results. Every run executes; what the shared runner
// saves across requests is the prepared app (workload build and ILR rewrite,
// reused from its memo).
//
// Endpoints:
//
//	POST /v1/jobs       the one way in: one body with a "kind"
//	                    discriminator (run | sweep | faults | attacks |
//	                    multicore) plus the kind's parameters; returns 202
//	                    and a job id
//	GET  /v1/jobs/{id}  job state, timings, progress, and error
//	GET  /v1/jobs/{id}/result
//	                    the one way out: the finished job's result
//	                    envelope, streamed exactly as results.Marshal
//	                    produced it (byte-identical to the equivalent CLI
//	                    invocation; a kind "run" job matches
//	                    `vcfrsim -stats-json`)
//	GET  /v1/jobs/{id}/events
//	                    live job progress as Server-Sent Events (state,
//	                    then coalesced progress updates, then done/failed)
//	DELETE /v1/jobs/{id}
//	                    cancel: the job's context is cancelled mid-run; once
//	                    the job settles the answer is its status view, and
//	                    the partial-rows envelope is read from /result
//	GET  /v1/workloads  the built-in workload catalog
//	GET  /healthz       liveness
//	GET  /metrics       Prometheus text: jobs by state, queue pressure,
//	                    app-memo effectiveness, per-stage latency
//	GET  /debug/pprof/  the standard Go profiler
//
// Every error answers the one envelope {"error": {"code", "message"}}.
//
// Robustness model: the job queue is bounded and overload answers 429 with
// a Retry-After derived from the observed drain rate (backpressure, not
// collapse); every job runs under a context deadline with real
// mid-simulation cancellation; a panicking job fails alone; Shutdown stops
// intake, lets the HTTP layer finish, and drains every accepted job before
// returning.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"vcfr/internal/harness"
	"vcfr/internal/jobs"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// Config sizes the service.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:8642". Port 0 picks an
	// ephemeral port (see Server.Addr).
	Addr string
	// Workers is the number of concurrent job executors. <= 0 means 2.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs; a
	// full queue answers 429. <= 0 means 64.
	QueueDepth int
	// JobTimeout is the default per-job execution deadline; requests may
	// shorten it per job (timeout_ms) but never extend it. 0 = none.
	JobTimeout time.Duration
	// JobRetention caps how many finished jobs (and their result envelopes)
	// stay pollable at /v1/jobs/{id}; beyond it the oldest-finished are
	// evicted, which is what keeps a long-running instance's memory bounded.
	// <= 0 means 256.
	JobRetention int
	// Runner executes jobs. nil builds a default runner.
	Runner *harness.Runner
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 256
	}
	if c.Runner == nil {
		c.Runner = harness.NewRunner(0)
	}
	return c
}

// Server is one vcfrd instance. Create with New, start with Start, stop
// with Shutdown.
type Server struct {
	cfg     Config
	runner  *harness.Runner
	metrics *metrics

	mux  *http.ServeMux
	http *http.Server
	ln   net.Listener

	queue    chan *Job
	jobMu    sync.Mutex
	jobs     map[string]*Job
	finished []string // finished job IDs, oldest first, for retention eviction
	jobSeq   atomic.Uint64
	wg       sync.WaitGroup // job workers
	intakeMu sync.Mutex     // serializes enqueue vs. shutdown's queue close
	draining bool           // guarded by intakeMu

	// exec runs one job's computation. Production is (*Server).execute;
	// lifecycle tests substitute controllable executors.
	exec func(context.Context, *Job) (results.Envelope, error)
}

// New builds a server; it does not listen yet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		runner:  cfg.Runner,
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
	}
	s.exec = s.execute
	s.routes()
	s.http = &http.Server{Handler: s.mux}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Start binds the listen address, launches the job workers, and serves HTTP
// in the background. It returns once the listener is bound, so Addr is
// valid immediately after.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve only fails this way if the listener dies under us;
			// nothing to do but let in-flight work finish.
			_ = err
		}
	}()
	return nil
}

// Addr returns the bound listen address (resolving port 0).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: new jobs are refused (503), the
// HTTP layer finishes in-flight requests (including a DELETE still waiting
// for its job to settle), and every job already accepted into
// the queue runs to completion before Shutdown returns. ctx bounds the
// whole drain; an expired ctx abandons the remaining work and returns its
// error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.intakeMu.Lock()
	already := s.draining
	s.draining = true
	s.intakeMu.Unlock()

	err := s.http.Shutdown(ctx)

	if !already {
		// No enqueue can be in flight past this point: enqueue() holds
		// intakeMu and re-checks draining before touching the channel.
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return err
}

// errQueueFull and errDraining distinguish the two refusal modes.
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("server shutting down")
)

// enqueue registers j and admits it to the bounded queue without blocking:
// a full queue is backpressure the caller must see, not hidden latency.
// Registration and accounting happen before the channel send — a worker can
// dequeue j the instant it enters the channel, and jobStarted must never
// run against a job the accepted counters haven't seen (the queued gauge
// would dip negative and /v1/jobs/{id} would briefly 404 a running job).
func (s *Server) enqueue(j *Job) error {
	s.intakeMu.Lock()
	defer s.intakeMu.Unlock()
	if s.draining {
		return errDraining
	}
	s.jobMu.Lock()
	s.jobs[j.ID] = j
	s.jobMu.Unlock()
	s.metrics.jobAccepted()
	select {
	case s.queue <- j:
	default:
		s.jobMu.Lock()
		delete(s.jobs, j.ID)
		s.jobMu.Unlock()
		s.metrics.jobAcceptRolledBack()
		s.metrics.jobRejected()
		return errQueueFull
	}
	return nil
}

// retireJob records j as finished and evicts the oldest finished jobs past
// the retention bound, so completed envelopes don't accumulate for the life
// of the process. Waiters holding the *Job (an SSE stream, a DELETE) are
// unaffected — eviction only drops the map entry that serves lookups.
func (s *Server) retireJob(j *Job) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.cfg.JobRetention {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

func (s *Server) newJob(kind jobs.Kind, req jobs.Request) *Job {
	return newJob(fmt.Sprintf("job-%06d", s.jobSeq.Add(1)), kind, req)
}

// apiError is the uniform error shape of every endpoint:
// {"error": {"code", "message"}}. Code is a stable machine-readable slug;
// message is for humans.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError answers with the service's uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]apiError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// writeRefusal maps the two intake refusals onto HTTP: queue pressure is
// 429 with a Retry-After derived from the observed drain rate plus the
// current queue occupancy in the body (so clients can back off
// proportionally), drain is 503.
func (s *Server) writeRefusal(w http.ResponseWriter, err error) {
	if errors.Is(err, errQueueFull) {
		depth, capacity := len(s.queue), cap(s.queue)
		retry := s.metrics.retryAfter(depth, s.cfg.Workers)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(struct {
			Error             apiError `json:"error"`
			QueueDepth        int      `json:"queue_depth"`
			QueueCapacity     int      `json:"queue_capacity"`
			RetryAfterSeconds int      `json:"retry_after_seconds"`
		}{
			Error:             apiError{Code: "queue_full", Message: err.Error()},
			QueueDepth:        depth,
			QueueCapacity:     capacity,
			RetryAfterSeconds: retry,
		})
		return
	}
	writeError(w, http.StatusServiceUnavailable, "draining", "%v", err)
}

// maxBodyBytes caps a request body. A job request is a few hundred bytes;
// the cap keeps one client from streaming an unbounded body into a decoder.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v, rejecting unknown fields.
// On failure it answers the request itself, with 413 when the body exceeds
// maxBodyBytes and 400 otherwise, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	writeError(w, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
	return false
}

// lookupJob finds the job the request's {id} names, answering 404 itself
// when the server does not know it (never submitted, or evicted past
// retention).
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	s.jobMu.Lock()
	j, ok := s.jobs[id]
	s.jobMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", id)
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeView(w, j)
	}
}

// writeView answers with the job's status view.
func writeView(w http.ResponseWriter, j *Job) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(j.view())
}

// handleJobResult is the only endpoint that serves result envelopes: it
// streams a finished job's bytes untouched, exactly as results.Marshal
// produced them, which is what keeps the service byte-identical to the
// CLIs.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	switch j.State() {
	case JobDone:
		body, _ := j.Envelope()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	case JobFailed:
		_, errMsg := j.Envelope()
		writeError(w, http.StatusInternalServerError, "job_failed", "%s", errMsg)
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "conflict", "job %s still %s", j.ID, j.State())
	}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name   string `json:"name"`
		Desc   string `json:"desc"`
		Source string `json:"source"` // "synthetic" or "elf"
	}
	var out []entry
	for _, n := range workloads.Names() {
		desc, source, err := workloads.Describe(n)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
			return
		}
		out = append(out, entry{Name: n, Desc: desc, Source: source})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, len(s.queue), cap(s.queue), runnerCaches(s.runner))
}
