// multicore runs two independently randomized processes on a two-core
// cluster sharing an L2 — the deployment the paper calls out as easy
// because VCFR randomizes only read-only instruction state (Sec. IV-D).
// Each process carries its own tables; each core has a private DRC.
//
//	go run ./examples/multicore
package main

import (
	"fmt"
	"log"

	"vcfr/internal/cpu"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

func main() {
	// Two different programs, randomized under two different seeds — two
	// processes with unrelated randomized layouts. Mode.Deploy picks what a
	// mode runs of a rewrite: under VCFR, the VCFR image with the process's
	// own tables and randomized return addresses.
	var names []string
	var procs []cpu.ClusterProc
	for _, p := range []struct {
		name string
		seed int64
	}{{"h264ref", 10}, {"hmmer", 20}} {
		w := workloads.MustByName(p.name, 1)
		r, err := ilr.Rewrite(w.Img, ilr.Options{Seed: p.seed})
		if err != nil {
			log.Fatal(err)
		}
		img, trans, randRA := cpu.ModeVCFR.Deploy(r)
		names = append(names, w.Name)
		procs = append(procs, cpu.ClusterProc{Img: img, Trans: trans, RandRA: randRA, Input: w.Input})
	}
	cluster, err := cpu.NewScheduledCluster(cpu.DefaultConfig(cpu.ModeVCFR), cpu.SchedConfig{}, procs)
	if err != nil {
		log.Fatal(err)
	}
	results, err := cluster.Run(0)
	if err != nil {
		log.Fatal(err)
	}

	for i, res := range results {
		fmt.Printf("core %d (%s): output %q, IPC %.3f, %d private-DRC lookups (%.1f%% miss)\n",
			i, names[i], res.Out, res.Stats.IPC(),
			res.DRC.Lookups, 100*res.DRC.MissRate())
	}
	fmt.Printf("shared L2: %d accesses, %.2f%% miss — the only coupling between the cores\n",
		results[0].L2.Accesses, 100*results[0].L2.MissRate())
	fmt.Println("each core de-randomizes against its own process tables; nothing to invalidate across cores")
}
