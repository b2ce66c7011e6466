// Command perfbench is the repository's benchmark. It drives the shipped
// commands — `experiments` through its CLI and `vcfrd` through the /v1/jobs
// HTTP API — with their default flags, checks every output against pinned
// digests, and prints the end-to-end metrics as one JSON line. With
// --trace 1 it instead runs the traced per-layer measurement.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the programs first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	sweep    experiments -stats-json over 14 workloads x 3 modes at scale 4
//	paper    experiments -experiment all, then the three canonical campaigns
//	service  vcfrd under a closed loop of clients sending the vcfrload mix
//
// `perfbench --pin` recomputes the digests from the current programs and
// prints them; its output is perfbench/digests.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vcfr/perfbench/spec"
)

// deadline keeps every run inside the three minutes a run may take.
const deadline = 170 * time.Second

// bench is one run's configuration.
type bench struct {
	bin         string // directory holding the built experiments, vcfrd and traced
	seed        int64  // benchmark seed
	pool        int64  // program seed the benchmark seed selects
	measure     time.Duration
	digests     *spec.Digests
	digestsPath string // where the digests were read, passed on to the traced run
}

func (b *bench) exe(name string) string { return filepath.Join(b.bin, name) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "sweep | paper | service")
		seed     = flag.Int64("seed", 1, "input seed: selects the program seed and the request order")
		seconds  = flag.Int("seconds", 20, "how long one run measures")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		bin      = flag.String("bin", ".bench_build/bin", "directory of the built programs")
		digests  = flag.String("digests", "perfbench/digests.json", "pinned output digests")
		pin      = flag.Bool("pin", false, "print freshly computed digests instead of benchmarking")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	b := &bench{bin: *bin, seed: *seed, pool: spec.PoolSeed(*seed),
		measure: time.Duration(*seconds) * time.Second, digestsPath: *digests}
	for _, p := range []string{"experiments", "vcfrd"} {
		if _, err := os.Stat(b.exe(p)); err != nil {
			return fmt.Errorf("program not built: %w", err)
		}
	}
	if *pin {
		return pinDigests(ctx, b, os.Stdout)
	}
	d, err := spec.LoadDigests(*digests)
	if err != nil {
		return err
	}
	b.digests = d

	res := newResult()
	switch {
	case *traced == 1:
		err = runTraced(ctx, b, *workload, res)
	case *workload == "sweep":
		err = runSweep(ctx, b, res)
	case *workload == "paper":
		err = runPaper(ctx, b, res)
	case *workload == "service":
		err = runService(ctx, b, res)
	default:
		err = fmt.Errorf("unknown workload %q (want sweep, paper or service)", *workload)
	}
	if err != nil {
		return err
	}
	return res.write(os.Stdout)
}
