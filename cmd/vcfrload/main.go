// Command vcfrload load-tests a vcfrd service through the unified /v1/jobs
// API: it fires a mixed stream of small run/sweep/faults/attacks jobs at
// the target with bounded concurrency, follows each job to completion, and
// reports throughput and latency percentiles as JSON — the producer behind
// BENCH_service.json.
//
// Usage:
//
//	vcfrload -addr http://127.0.0.1:8642 -n 2000 -c 32
//	vcfrload -addr http://127.0.0.1:8650 -n 500 -c 16 -mix run=6,sweep=1,faults=1,attacks=1
//
// Jobs are deliberately tiny (instruction-capped runs, one-workload
// campaigns with a handful of injections) so the benchmark measures the
// service — queueing, scheduling, dispatch, serialization — rather than
// the simulator's own throughput.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcfr/internal/jobs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcfrload:", err)
		os.Exit(1)
	}
}

// jobSpec is one weighted entry of the request mix.
type jobSpec struct {
	kind jobs.Kind
	req  jobs.Request
}

func run() error {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8642", "target vcfrd base URL")
		n       = flag.Int("n", 2000, "total jobs to run")
		c       = flag.Int("c", 32, "concurrent in-flight jobs")
		mix     = flag.String("mix", "run=8,sweep=1,faults=1,attacks=1", "kind weights, kind=weight comma list")
		timeout = flag.Duration("timeout", 10*time.Minute, "whole-benchmark deadline")
	)
	flag.Parse()

	specs, err := buildMix(*mix)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client := &client{base: strings.TrimRight(*addr, "/"), http: &http.Client{}}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		perKind   = map[string]int{}
		errs      atomic.Uint64
		retried   atomic.Uint64
		next      atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= *n || ctx.Err() != nil {
					return
				}
				spec := specs[i%len(specs)]
				t0 := time.Now()
				if err := oneJob(ctx, client, spec, &retried); err != nil {
					errs.Add(1)
					continue
				}
				d := time.Since(t0)
				mu.Lock()
				latencies = append(latencies, d)
				perKind[string(spec.kind)]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	report := map[string]any{
		"target":         *addr,
		"requests":       *n,
		"concurrency":    *c,
		"mix":            *mix,
		"completed":      len(latencies),
		"errors":         errs.Load(),
		"submit_retries": retried.Load(),
		"duration_s":     round3(elapsed.Seconds()),
		"throughput_rps": round3(float64(len(latencies)) / elapsed.Seconds()),
		"latency_ms": map[string]float64{
			"mean": round3(meanMS(latencies)),
			"p50":  round3(pctMS(latencies, 0.50)),
			"p90":  round3(pctMS(latencies, 0.90)),
			"p99":  round3(pctMS(latencies, 0.99)),
			"p999": round3(pctMS(latencies, 0.999)),
			"max":  round3(pctMS(latencies, 1)),
		},
		"per_kind": perKind,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// oneJob drives one job start to finish: submit (retrying 429/503 refusals
// with a short pause — backpressure is the service working as designed, not
// a failure), follow the event stream, fetch the result.
func oneJob(ctx context.Context, c *client, spec jobSpec, retried *atomic.Uint64) error {
	var id string
	var err error
	for attempt := 0; ; attempt++ {
		id, err = c.submit(ctx, spec.kind, spec.req)
		if err == nil {
			break
		}
		if attempt >= 400 || ctx.Err() != nil ||
			(!strings.Contains(err.Error(), "429") && !strings.Contains(err.Error(), "503")) {
			return err
		}
		retried.Add(1)
		select {
		case <-time.After(25 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := c.wait(ctx, id); err != nil {
		return err
	}
	return c.result(ctx, id)
}

// buildMix expands "run=8,sweep=1,..." into a weighted round-robin schedule
// of tiny job templates. Workloads rotate per slot so the server's caches
// (prepared apps, fault reference traces) are exercised but not trivially
// hot.
func buildMix(s string) ([]jobSpec, error) {
	names := []string{"bzip2", "sjeng", "xalan"}
	widx := 0
	pick := func() string { w := names[widx%len(names)]; widx++; return w }
	var specs []jobSpec
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		weight, err := strconv.Atoi(kv[1])
		if err != nil || weight < 0 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		for i := 0; i < weight; i++ {
			switch kind := jobs.Kind(kv[0]); kind {
			case jobs.KindRun:
				specs = append(specs, jobSpec{kind, jobs.Request{
					Workload: pick(), Mode: "vcfr", Instructions: 2000,
				}})
			case jobs.KindSweep:
				specs = append(specs, jobSpec{kind, jobs.Request{
					Workloads: []string{pick()}, Instructions: 2000,
				}})
			case jobs.KindFaults:
				specs = append(specs, jobSpec{kind, jobs.Request{
					Workloads: []string{pick()}, Injections: 2, Instructions: 2000,
				}})
			case jobs.KindAttacks:
				specs = append(specs, jobSpec{kind, jobs.Request{
					Workloads: []string{pick()}, MaxLeaks: 4, AdvanceInsts: 500, Instructions: 2000,
				}})
			default:
				return nil, fmt.Errorf("unknown kind %q in mix", kv[0])
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return specs, nil
}

func meanMS(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return float64(sum.Milliseconds()) / float64(len(d))
}

// pctMS returns the q-quantile (0 < q <= 1) of the sorted latency slice, in
// milliseconds (nearest-rank method).
func pctMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
