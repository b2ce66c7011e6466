package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vcfr/perfbench/spec"
)

// clients is the closed loop's client count, sized for a two-CPU host;
// each client holds one connection for its job's event stream.
const clients = 2

// scheduleRounds bounds the pre-generated request order; clients wrap
// around it.
const scheduleRounds = 200

// errRefused marks a submission the service answered with 429 or 503.
var errRefused = errors.New("refused")

// vcfrd is one running service process.
type vcfrd struct {
	cmd    *exec.Cmd
	base   string
	http   *http.Client
	exited chan struct{} // closed once the process has been waited for
}

// startVcfrd launches vcfrd with its default configuration on an ephemeral
// port and returns once /healthz answers.
func startVcfrd(ctx context.Context, path string) (*vcfrd, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting vcfrd: %w", err)
	}
	v := &vcfrd{cmd: cmd, exited: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}}
	addr := make(chan string, 1)
	go func() {
		// Read stderr to EOF so the process never blocks on a full pipe;
		// the listening line carries the ephemeral address.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "vcfrd: listening on "); ok {
				addr <- strings.Fields(a)[0]
			}
		}
		_ = cmd.Wait()
		close(v.exited)
	}()
	select {
	case a := <-addr:
		v.base = "http://" + a
	case <-v.exited:
		return nil, fmt.Errorf("vcfrd exited before listening")
	case <-ctx.Done():
		v.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := v.get(ctx, "/healthz")
		if err == nil && resp.StatusCode == http.StatusOK {
			resp.Body.Close()
			return v, nil
		}
		if err == nil {
			resp.Body.Close()
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			v.stop()
			return nil, ctx.Err()
		}
	}
}

// stop asks vcfrd to drain and exit, and waits until it has.
func (v *vcfrd) stop() {
	_ = v.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-v.exited:
	case <-time.After(10 * time.Second):
		_ = v.cmd.Process.Kill()
		<-v.exited
	}
	v.http.CloseIdleConnections()
}

// hwmMB is the process's resident-set high-water mark (VmHWM).
func (v *vcfrd) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", v.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func (v *vcfrd) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, v.base+path, nil)
	if err != nil {
		return nil, err
	}
	return v.http.Do(req)
}

// job runs one request start to finish: submit, follow the event stream to
// its terminal event, fetch the result envelope.
func (v *vcfrd) job(ctx context.Context, j spec.Job) ([]byte, error) {
	body, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, v.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := v.http.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%s: %w (%s)", j.Name(), errRefused, resp.Status)
	default:
		return nil, fmt.Errorf("%s: submit: %s: %s", j.Name(), resp.Status, bytes.TrimSpace(data))
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		return nil, fmt.Errorf("%s: bad 202 body %q", j.Name(), data)
	}
	if err := v.await(ctx, acc.ID); err != nil {
		return nil, fmt.Errorf("%s: %w", j.Name(), err)
	}
	resp, err = v.get(ctx, "/v1/jobs/"+acc.ID+"/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result: %s", resp.Status)
	}
	return data, err
}

// await reads the job's Server-Sent Events until "done" (nil) or "failed".
func (v *vcfrd) await(ctx context.Context, id string) error {
	resp, err := v.get(ctx, "/v1/jobs/"+id+"/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch sc.Text() {
		case "event: done":
			return nil
		case "event: failed":
			sc.Scan()
			return fmt.Errorf("job failed: %s", strings.TrimPrefix(sc.Text(), "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream ended without a terminal event")
}

// checkedJob runs one job and compares its envelope with the pinned digest.
func checkedJob(ctx context.Context, v *vcfrd, d *spec.Digests, j spec.Job) error {
	body, err := v.job(ctx, j)
	if err != nil {
		return err
	}
	return spec.Check(j.Name(), body, d.Service[spec.Key(j.Seed)][j.Name()])
}

// serviceUp launches vcfrd and runs the warm-up pass: every template of
// the mix once, so the timed loop starts with warm caches. It returns the
// time from launch until the warm-up finished.
func serviceUp(ctx context.Context, b *bench, res *result) (*vcfrd, time.Duration, error) {
	start := time.Now()
	v, err := startVcfrd(ctx, b.exe("vcfrd"))
	if err != nil {
		return nil, 0, err
	}
	for _, j := range spec.Templates(spec.Mix(b.pool)) {
		err := checkedJob(ctx, v, b.digests, j)
		res.count(err != nil)
		if err != nil {
			failf("warm-up %v", err)
		}
	}
	return v, time.Since(start), nil
}

// loopStats is what a closed-loop session observed.
type loopStats struct {
	elapsed time.Duration
	ok      int
	lat     []float64            // ms from submit until the result was fetched
	perKind map[string][]float64 // the same, by job kind
	refused int
}

// closedLoop runs the client loop for d: each client sends its next
// request only after fetching the previous result.
func closedLoop(ctx context.Context, v *vcfrd, b *bench, res *result, d time.Duration) *loopStats {
	sched := spec.Schedule(b.seed, scheduleRounds)
	st := &loopStats{perKind: map[string][]float64{}}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	stopAt := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				mu.Lock()
				j := sched[next%len(sched)]
				next++
				mu.Unlock()
				t0 := time.Now()
				err := checkedJob(ctx, v, b.digests, j)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				res.count(err != nil)
				if err != nil {
					if errors.Is(err, errRefused) {
						st.refused++
					}
					failf("%v", err)
				} else {
					st.ok++
					st.lat = append(st.lat, ms)
					st.perKind[j.Kind] = append(st.perKind[j.Kind], ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	sort.Float64s(st.lat)
	return st
}

// runService measures the job service under a closed loop of clients.
func runService(ctx context.Context, b *bench, res *result) error {
	var setups []float64
	var v *vcfrd
	for i := 0; i < setupRounds; i++ {
		var err error
		var d time.Duration
		if v, d, err = serviceUp(ctx, b, res); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupRounds-1 {
			v.stop()
		}
	}
	defer v.stop()
	st := closedLoop(ctx, v, b, res, b.measure)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if st.ok == 0 {
		return fmt.Errorf("service: no job completed")
	}
	hwm, err := v.hwmMB()
	if err != nil {
		return err
	}
	p99, q, ok := tailQuantile(st.lat, 0.99, 10)
	if !ok {
		return fmt.Errorf("service: %d jobs are too few for a tail percentile", len(st.lat))
	}
	fmt.Fprintf(os.Stderr, "perfbench: service: %d jobs, job_p%.1f_ms %.3f\n", len(st.lat), 100*q, p99)
	walls := make([]float64, len(st.lat))
	for i, ms := range st.lat {
		walls[i] = ms / 1000
	}
	return setOps(res, median(setups), walls, st.elapsed, hwm)
}
