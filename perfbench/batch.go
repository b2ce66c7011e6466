package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"time"

	"vcfr/perfbench/spec"
)

// setupRounds is how many times a run repeats its set-up; setup_s is the
// median.
const setupRounds = 7

// proc is one finished batch command.
type proc struct {
	wall   time.Duration
	rssMB  float64 // wait4 high-water resident set
	stdout []byte
}

// runCmd runs a program to completion and reports its wall time and peak
// RSS. A non-zero exit is an error carrying the tail of its stderr.
func runCmd(ctx context.Context, path string, args ...string) (proc, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(start), stdout: out.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if err != nil {
		tail := strings.TrimSpace(errb.String())
		if len(tail) > 300 {
			tail = tail[len(tail)-300:]
		}
		return p, fmt.Errorf("%s %s: %w: %s", path, strings.Join(args, " "), err, tail)
	}
	return p, nil
}

// sweepArgs is the sweep workload's command line at one program seed.
func sweepArgs(seed int64) []string {
	return []string{"-stats-json", "-scale", fmt.Sprint(spec.SweepScale),
		"-workloads", strings.Join(spec.SweepWorkloads, ","), "-seed", fmt.Sprint(seed)}
}

// tablesArgs is the paper workload's table command line at one program seed.
func tablesArgs(seed int64) []string {
	return []string{"-experiment", "all", "-seed", fmt.Sprint(seed)}
}

func campaignArgs(mode string) []string { return []string{"-mode", mode, "-stats-json"} }

// elapsedSuffix matches the wall-clock suffix experiments appends to each
// table's "paper:" line; it is the only nondeterministic part of the output.
var elapsedSuffix = regexp.MustCompile(`(?m)   \(\d+(\.\d+)?s\)$`)

func normalizeTables(b []byte) []byte { return elapsedSuffix.ReplaceAll(b, nil) }

// setup runs one set-up round setupRounds times and returns the median
// wall time in seconds.
func setup(ctx context.Context, round func() (time.Duration, error)) (float64, error) {
	var walls []float64
	for i := 0; i < setupRounds; i++ {
		d, err := round()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, d.Seconds())
	}
	return median(walls), nil
}

// failf reports one failed operation on stderr.
func failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// runSweep measures raw simulator throughput: repeated stats-json sweeps,
// each a fresh process whose every run is unique.
func runSweep(ctx context.Context, b *bench, res *result) error {
	exp := b.exe("experiments")
	setupS, err := setup(ctx, func() (time.Duration, error) {
		p, err := runCmd(ctx, exp, append(sweepArgs(b.pool), "-instructions", "1")...)
		return p.wall, err
	})
	if err != nil {
		return err
	}
	want := b.digests.Sweep[spec.Key(b.pool)]
	var walls, rates, rss []float64
	start := time.Now()
	for res.Attempted == 0 || time.Since(start) < b.measure {
		p, err := runCmd(ctx, exp, sweepArgs(b.pool)...)
		if err == nil {
			err = spec.Check("sweep", p.stdout, want)
		}
		var insts uint64
		if err == nil {
			insts, err = sweepInstructions(p.stdout)
		}
		res.count(err != nil)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failf("%v", err)
			continue
		}
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(insts)/p.wall.Seconds()/1e6)
		rss = append(rss, p.rssMB)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "perfbench: sweep: %d sweeps, sim_minstr_per_s %.3f (median)\n", len(walls), median(rates))
	return setOps(res, setupS, walls, elapsed, median(rss))
}

// setOps records the end-to-end metrics every workload reports: set-up
// time, the median latency and the throughput of its operation (walls, in
// seconds, over the measured elapsed time), and peak RSS.
func setOps(res *result, setupS float64, walls []float64, elapsed time.Duration, rssMB float64) error {
	return firstErr(
		res.set("setup_s", "s", setupS),
		res.set("op_p50_ms", "ms", 1000*median(walls)),
		res.set("ops_per_s", "1/s", float64(len(walls))/elapsed.Seconds()),
		res.set("peak_rss_mb", "MB", rssMB),
	)
}

// sweepInstructions sums the simulated instructions over a sweep
// envelope's rows.
func sweepInstructions(envelope []byte) (uint64, error) {
	var env struct {
		Sweep struct {
			Rows []struct {
				Result struct {
					Stats struct{ Instructions uint64 }
				} `json:"result"`
			} `json:"rows"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(envelope, &env); err != nil {
		return 0, fmt.Errorf("sweep envelope: %w", err)
	}
	var n uint64
	for _, r := range env.Sweep.Rows {
		n += r.Result.Stats.Instructions
	}
	if n == 0 {
		return 0, fmt.Errorf("sweep envelope reports no instructions")
	}
	return n, nil
}

// runPaper measures the full reproduction: the paper's tables, then the
// three canonical campaigns, repeated while time remains.
func runPaper(ctx context.Context, b *bench, res *result) error {
	exp := b.exe("experiments")
	// Campaigns at one instruction still run their whole attack search, so
	// set-up covers the tables and the two campaigns that are simulation.
	setupS, err := setup(ctx, func() (time.Duration, error) {
		var total time.Duration
		for _, args := range [][]string{tablesArgs(b.pool), campaignArgs("faults"), campaignArgs("multicore")} {
			p, err := runCmd(ctx, exp, append(args, "-instructions", "1")...)
			if err != nil {
				return 0, err
			}
			total += p.wall
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	var passes, tables, campaigns, rss []float64
	start := time.Now()
	for res.Attempted == 0 || time.Since(start) < b.measure {
		ok := true
		p, err := runCmd(ctx, exp, tablesArgs(b.pool)...)
		if err == nil {
			err = spec.Check("tables", normalizeTables(p.stdout), b.digests.Tables[spec.Key(b.pool)])
		}
		res.count(err != nil)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			failf("%v", err)
			ok = false
		}
		tablesWall, peak := p.wall, p.rssMB
		var campaignsWall time.Duration
		for _, mode := range spec.Campaigns {
			p, err := runCmd(ctx, exp, campaignArgs(mode)...)
			if err == nil {
				err = spec.Check(mode, p.stdout, b.digests.Campaigns[mode])
			}
			res.count(err != nil)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				failf("%v", err)
				ok = false
			}
			campaignsWall += p.wall
			peak = max(peak, p.rssMB)
		}
		if ok {
			passes = append(passes, (tablesWall + campaignsWall).Seconds())
			tables = append(tables, tablesWall.Seconds())
			campaigns = append(campaigns, campaignsWall.Seconds())
			rss = append(rss, peak)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "perfbench: paper: %d passes, tables_s %.3f, campaigns_s %.3f (medians)\n",
		len(passes), median(tables), median(campaigns))
	return setOps(res, setupS, passes, elapsed, median(rss))
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
