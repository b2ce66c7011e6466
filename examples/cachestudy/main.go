// cachestudy sweeps the De-Randomization Cache design space on one workload:
// capacity (the paper's Fig. 13/14 axis), associativity, and unified-vs-
// split organization, reporting IPC, DRC miss rate, and the DRC's share of
// dynamic power for each point.
//
//	go run ./examples/cachestudy
//	go run ./examples/cachestudy -workload xalan -scale 2
package main

import (
	"flag"
	"fmt"
	"log"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/power"
	"vcfr/internal/workloads"
)

func main() {
	workload := flag.String("workload", "h264ref", "workload to study")
	scale := flag.Int("scale", 1, "workload scale")
	flag.Parse()

	w, err := workloads.ByName(*workload, *scale)
	if err != nil {
		log.Fatal(err)
	}
	app, err := harness.NewApp(w, ilr.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	base, _, err := app.Run(cpu.ModeBaseline, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: baseline IPC %.3f over %d instructions\n\n",
		*workload, base.Stats.IPC(), base.Stats.Instructions)
	fmt.Printf("%-9s %-6s %-8s  %-9s %-9s %-10s %-9s\n",
		"entries", "assoc", "org", "norm-IPC", "DRC-miss", "walks", "power-ovh")

	model := power.DefaultModel()
	for _, entries := range []int{32, 64, 128, 256, 512} {
		for _, conf := range []struct {
			assoc int
			split bool
			name  string
		}{
			{1, false, "unified"},
			{2, false, "unified"},
			{1, true, "split"},
		} {
			entries, conf := entries, conf
			res, cfg, err := app.Run(cpu.ModeVCFR, 0, func(c *cpu.Config) {
				c.DRCEntries = entries
				c.DRCAssoc = conf.assoc
				c.DRCSplit = conf.split
			})
			if err != nil {
				log.Fatal(err)
			}
			b := model.Analyze(res, cfg)
			fmt.Printf("%-9d %-6d %-8s  %-9.3f %-9s %-10d %.3f%%\n",
				entries, conf.assoc, conf.name,
				res.Stats.IPC()/base.Stats.IPC(),
				fmt.Sprintf("%.1f%%", 100*res.DRC.MissRate()),
				res.DRC.TableWalks,
				b.DRCOverheadPct())
		}
	}
	fmt.Println("\npaper's design point: 64-512 direct-mapped unified entries;")
	fmt.Println("miss penalty stays marginal because the table walk hits the L2 (Sec. IV-B).")
}
