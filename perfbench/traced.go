package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// serverProbe is how long a traced run of the batch workloads drives the
// service to read its per-layer numbers; the service workload uses the
// full measurement time.
const serverProbe = 3 * time.Second

// runTraced produces the per-layer metrics: the in-process traced run (the
// traced program, which also prints the reconciliation and attribution
// report on stderr), then a vcfrd session for the server layer, read from
// /metrics and from the client.
func runTraced(ctx context.Context, b *bench, workload string, res *result) error {
	if workload != "sweep" && workload != "paper" && workload != "service" {
		return fmt.Errorf("unknown workload %q (want sweep, paper or service)", workload)
	}
	cmd := exec.CommandContext(ctx, b.exe("traced"), "-workload", workload,
		"-seed", strconv.FormatInt(b.seed, 10), "-digests", b.digestsPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	var layers result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &layers); err != nil {
		return fmt.Errorf("traced run output: %w", err)
	}
	res.Attempted += layers.Attempted
	res.Failed += layers.Failed
	for name, m := range layers.Metrics {
		if err := res.set(name, m.Unit, m.Value); err != nil {
			return err
		}
	}

	d := serverProbe
	if workload == "service" {
		d = b.measure
	}
	v, _, err := serviceUp(ctx, b, res)
	if err != nil {
		return err
	}
	defer v.stop()
	st := closedLoop(ctx, v, b, res, d)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	resp, err := v.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	prom, err := parseProm(bufio.NewScanner(resp.Body))
	if err != nil {
		return err
	}
	for _, stage := range []struct{ prom, name string }{{"queue", "queue_wait_ms"}, {"run", "run_ms"}} {
		for _, q := range []struct {
			q   float64
			tag string
		}{{0.5, "p50"}, {0.99, "p99"}} {
			sec := histQuantile(prom.buckets[stage.prom], q.q)
			if err := res.set("server."+stage.name+"."+q.tag, "ms", 1000*sec); err != nil {
				return err
			}
		}
	}
	for _, kind := range []string{"run", "sweep", "faults", "attacks"} {
		lat := st.perKind[kind]
		if len(lat) == 0 {
			return fmt.Errorf("server probe: no %s job completed", kind)
		}
		sort.Float64s(lat)
		if err := res.set("server.job_ms."+kind+".p50", "ms", nearestRank(lat, 0.5)); err != nil {
			return err
		}
	}
	p99, q, ok := tailQuantile(st.lat, 0.99, 10)
	if !ok {
		return fmt.Errorf("server probe: %d jobs are too few for a tail percentile", len(st.lat))
	}
	fmt.Fprintf(os.Stderr, "perfbench: server.job_ms.p99 reports p%.1f of %d jobs\n", 100*q, len(st.lat))
	return firstErr(
		res.set("server.job_ms.p99", "ms", p99),
		res.set("server.refused", "count", float64(st.refused)+prom.scalars["vcfrd_jobs_rejected_total"]),
	)
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le  float64 // upper bound; +Inf for the last
	cum float64
}

// promText is the part of a Prometheus exposition the benchmark reads:
// unlabelled scalars and the per-stage latency histogram.
type promText struct {
	scalars map[string]float64
	buckets map[string][]bucket // by stage label
}

func parseProm(sc *bufio.Scanner) (*promText, error) {
	p := &promText{scalars: map[string]float64{}, buckets: map[string][]bucket{}}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		series := line[:i]
		if rest, ok := strings.CutPrefix(series, "vcfrd_stage_seconds_bucket{"); ok {
			var stage, le string
			for _, kv := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
				k, v, _ := strings.Cut(kv, "=")
				v = strings.Trim(v, `"`)
				switch k {
				case "stage":
					stage = v
				case "le":
					le = v
				}
			}
			bound, err := strconv.ParseFloat(le, 64) // accepts "+Inf"
			if err != nil {
				return nil, fmt.Errorf("metrics bucket %q: %w", line, err)
			}
			p.buckets[stage] = append(p.buckets[stage], bucket{bound, val})
			continue
		}
		if !strings.Contains(series, "{") {
			p.scalars[series] = val
		}
	}
	return p, sc.Err()
}

// histQuantile estimates the q-quantile of a cumulative histogram by
// linear interpolation inside the bucket that holds it, as Prometheus's
// histogram_quantile does; a quantile in the +Inf bucket reads as the
// highest finite bound.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if b.le > 1e300 {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}
