package server

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"vcfr/internal/harness"
	"vcfr/internal/jobs"
	"vcfr/internal/results"
)

// JobState is a job's position in its lifecycle. Transitions are strictly
// queued -> running -> (done | failed); there are no other edges.
type JobState string

// Job states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one queued or executing request. State, timestamps, and the result
// are guarded by mu; done is closed exactly once when the job leaves the
// running state, which is what SSE streams and DELETE block on.
type Job struct {
	ID   string
	Kind jobs.Kind
	Req  jobs.Request

	// ctx is cancelled by DELETE /v1/jobs/{id}; the per-job execution
	// deadline derives from it, so cancellation reaches a running
	// simulation mid-loop. cancel is safe to call repeatedly.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	err      string
	envelope []byte                             // marshaled results.Envelope, set when state == JobDone
	progress *harness.Progress                  // live sweep completion state, set while running
	subs     map[chan harness.Progress]struct{} // SSE subscribers; buffered(1), coalescing

	done chan struct{}
}

func newJob(id string, kind jobs.Kind, req jobs.Request) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		ID:      id,
		Kind:    kind,
		Req:     req,
		ctx:     ctx,
		cancel:  cancel,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns the channel closed when the job finishes (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Envelope returns the marshaled result bytes and error text; valid only
// after Done.
func (j *Job) Envelope() (body []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.envelope, j.err
}

// setProgress records the job's live completion state; it is the progress
// callback of harness.StatsSweepProgress and fault.RunCampaign, invoked
// from worker goroutines. Subscribers get a coalescing notification: each
// channel holds at most the latest update, so a slow SSE client never
// backpressures the simulation.
func (j *Job) setProgress(p harness.Progress) {
	j.mu.Lock()
	j.progress = &p
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
	j.mu.Unlock()
}

// subscribe registers a progress listener, primed with the latest update if
// one exists.
func (j *Job) subscribe() chan harness.Progress {
	ch := make(chan harness.Progress, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan harness.Progress]struct{})
	}
	j.subs[ch] = struct{}{}
	if j.progress != nil {
		ch <- *j.progress
	}
	j.mu.Unlock()
	return ch
}

func (j *Job) unsubscribe(ch chan harness.Progress) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// jobView is the JSON shape GET and DELETE /v1/jobs/{id} serve: the job's
// lifecycle, never its result (that is GET /v1/jobs/{id}/result).
type jobView struct {
	ID       string     `json:"id"`
	Kind     jobs.Kind  `json:"kind"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Progress is the job's live completion state (cells or injections
	// finished, total, simulated instructions so far), populated while a
	// sweep or fault campaign runs and retained on its final view.
	Progress *harness.Progress `json:"progress,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{ID: j.ID, Kind: j.Kind, State: j.state, Created: j.created, Error: j.err}
	if j.progress != nil {
		p := *j.progress
		v.Progress = &p
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// worker drains the queue until it is closed (graceful shutdown closes the
// queue only after intake stops, so every accepted job still executes).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job with panic isolation and a per-job deadline. A
// panic anywhere in the simulator fails this job and this job only; the
// worker, the queue, and every other job keep going.
func (s *Server) runJob(j *Job) {
	start := time.Now()
	j.mu.Lock()
	j.state = JobRunning
	j.started = start
	queueWait := start.Sub(j.created)
	j.mu.Unlock()
	s.metrics.jobStarted(queueWait)

	timeout := s.cfg.JobTimeout
	if ms := j.Req.TimeoutMS; ms > 0 {
		if t := time.Duration(ms) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	// The deadline derives from the job's own cancellable context, so a
	// DELETE /v1/jobs/{id} reaches a running simulation exactly like an
	// expired deadline does.
	ctx := j.ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	body, err := func() (body []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.jobPanicked()
				err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
			}
		}()
		return s.executeBytes(ctx, j)
	}()

	now := time.Now()
	j.mu.Lock()
	j.finished = now
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
		j.envelope = body
	}
	j.mu.Unlock()
	s.metrics.jobFinished(err == nil, now.Sub(start))
	close(j.done)
	s.retireJob(j)
}

// executeBytes runs a job and marshals its envelope — the bytes every
// result endpoint then serves untouched.
func (s *Server) executeBytes(ctx context.Context, j *Job) ([]byte, error) {
	env, err := s.exec(ctx, j)
	if err != nil {
		return nil, err
	}
	return results.Marshal(env)
}

// execute is the production job executor (tests substitute s.exec): the
// service is a thin HTTP shell around jobs.Run, the entry point the CLIs
// use, which is what pins service responses to CLI output byte for byte.
func (s *Server) execute(ctx context.Context, j *Job) (results.Envelope, error) {
	out, err := jobs.Run(ctx, s.runner, j.Kind, j.Req, j.setProgress)
	if err != nil {
		return results.Envelope{}, err
	}
	// Finished fault and attack campaigns feed the cumulative fault.* and
	// attack.* series on /metrics.
	s.metrics.campaignFinished(out.Envelope)
	return out.Envelope, nil
}
