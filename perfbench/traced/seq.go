package main

import (
	"fmt"
	"strconv"
	"strings"

	"vcfr/internal/attack"
	"vcfr/internal/cfg"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/fault"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/isa"
	"vcfr/internal/multicore"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
	"vcfr/perfbench/spec"
)

// A sequence replays one workload's work through the layers' public
// functions. full selects the workload's own size; otherwise the sequence
// runs at probe size, so that every traced run reaches every layer.
type sequence func(l *lab, full bool)

var sequences = map[string]sequence{
	"sweep":   seqSweep,
	"paper":   seqPaper,
	"service": seqService,
}

// seqSweep is the stats sweep: every workload under all three modes, each
// run unique, enveloped and marshaled as `experiments -stats-json` does.
func seqSweep(l *lab, full bool) {
	names, scale := spec.SweepWorkloads, spec.SweepScale
	if !full {
		names, scale = []string{"bzip2", "xalan", "elf-dispatch"}, 1
	}
	var rows []results.Run
	for _, name := range names {
		seed := harness.CellSeed(l.pool, "stats", name)
		app, err := l.prepare(name, scale, seed)
		if err != nil {
			l.fail(err)
			return
		}
		for _, mode := range modes {
			res, ccfg, err := l.simulate(app, mode, 0, nil, false)
			if err != nil {
				l.fail(err)
				return
			}
			rows = append(rows, runRow(name, mode, seed, ccfg, res, app))
		}
	}
	body := l.marshal(results.NewSweep(rows))
	if full {
		l.check("sweep", body, l.dg.Sweep[spec.Key(l.pool)])
	}
}

// seqPaper is the reproduction's reuse-heavy shape: the Fig. 12-14
// experiments, one capture per app and mode replayed under other DRC
// sizes, the Fig. 2 emulator runs, the Fig. 11 gadget scans, a scheduled
// cluster per mode, and the three campaigns.
func seqPaper(l *lab, full bool) {
	r := l.runner
	figCfg := harness.Config{Seed: l.pool}
	replayApps := []string{"bzip2", "h264ref", "mcf", "xalan"}
	emuApps := workloads.Fig2Names
	scanApps := workloads.SpecNames
	clusterInsts := uint64(300_000)
	if !full {
		figCfg.Workloads = []string{"mcf", "xalan"}
		replayApps, emuApps, scanApps = []string{"mcf"}, []string{"bzip2"}, []string{"xalan"}
		clusterInsts = 60_000
	}
	for _, id := range []string{"fig12", "fig13", "fig14"} {
		e, err := harness.ByID(id)
		if err != nil {
			l.fail(err)
			return
		}
		var t *harness.Table
		l.tr.do("harness."+id, "", func() { t, err = r.Run(l.ctx, e, figCfg) })
		if err != nil {
			l.fail(err)
			return
		}
		if full {
			l.figures[id] = figureValue(t)
		}
	}

	for _, name := range replayApps {
		app, err := l.prepare(name, 1, harness.CellSeed(l.pool, "fig13", name))
		if err != nil {
			l.fail(err)
			return
		}
		for _, mode := range modes {
			if _, _, err := l.simulate(app, mode, 0, nil, true); err != nil {
				l.fail(err)
				return
			}
		}
		for _, drc := range []int{512, 64} {
			drc := drc
			if _, _, err := l.simulate(app, cpu.ModeVCFR, 0, func(c *cpu.Config) { c.DRCEntries = drc }, true); err != nil {
				l.fail(err)
				return
			}
		}
	}

	for _, name := range emuApps {
		app, err := l.prepare(name, 1, harness.CellSeed(l.pool, "fig2", name))
		if err != nil {
			l.fail(err)
			return
		}
		var nat, em emu.RunResult
		i := l.tr.begin("emu.native", "")
		nat, err = emu.Run(app.R.Orig, emu.Config{Mode: emu.ModeNative, Input: app.W.Input})
		l.tr.end(i, nat.Stats.Instructions, 0)
		if err != nil {
			l.fail(fmt.Errorf("%s native: %w", name, err))
			return
		}
		i = l.tr.begin("emu.emulated", "")
		em, err = app.RunEmulated(0)
		l.tr.end(i, em.Stats.Instructions, 0)
		if err != nil {
			l.fail(fmt.Errorf("%s emulated: %w", name, err))
			return
		}
	}

	var apps []*harness.App
	for _, name := range scanApps {
		app, err := l.prepare(name, 1, harness.CellSeed(l.pool, "fig11", name))
		if err != nil {
			l.fail(err)
			return
		}
		apps = append(apps, app)
		var pool []gadget.Gadget
		i := l.tr.begin("gadget.scan", "")
		pool = gadget.Scan(app.R.Orig, gadget.DefaultMaxInsts)
		l.tr.end(i, uint64(len(pool)), 0)
	}

	tenants := []*harness.App{apps[0], apps[len(apps)-1]}
	for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeVCFR} {
		if err := l.cluster(mode, tenants, clusterInsts); err != nil {
			l.fail(err)
			return
		}
	}

	if full {
		l.canonicalCampaigns(r)
	} else {
		mix := spec.Mix(l.pool)
		for _, j := range mix[9:] { // the faults and attacks templates
			l.job(j)
		}
		l.campaign("multicore", "", func() (results.Envelope, uint64, error) {
			rep, err := multicore.RunCampaign(l.ctx, r, multicore.Config{
				Workloads: []string{"bzip2", "sjeng"}, Cells: []multicore.Cell{{Cores: 1, Tenants: 2}},
				Seed: l.pool, MaxInsts: 20_000}, nil)
			if err != nil {
				return results.Envelope{}, 0, err
			}
			return rep.Envelope(), 0, nil
		})
	}
}

// figureValue reads a figure table's headline: the average row's last
// cell that is a number (the @64 column of Fig. 13 and 14, the speedup
// of Fig. 12).
func figureValue(t *harness.Table) float64 {
	for _, row := range t.Rows {
		if len(row) == 0 || row[0] != "average" {
			continue
		}
		v := 0.0
		for _, cell := range row[1:] {
			pct := strings.HasSuffix(cell, "%")
			if f, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64); err == nil {
				if pct {
					f /= 100
				}
				v = f
			}
		}
		return v
	}
	return 0
}

// cluster runs the tenants time-shared on one core in mode.
func (l *lab) cluster(mode cpu.Mode, apps []*harness.App, maxInsts uint64) error {
	var procs []cpu.ClusterProc
	for _, app := range apps {
		p := cpu.ClusterProc{Img: app.R.Orig, Input: app.W.Input}
		if mode == cpu.ModeVCFR {
			p = cpu.ClusterProc{Img: app.R.VCFR, Trans: app.R.Tables, RandRA: app.R.RandRA, Input: app.W.Input}
		}
		procs = append(procs, p)
	}
	var cl *cpu.Cluster
	var err error
	l.tr.do("cpu.new", "", func() {
		cl, err = cpu.NewScheduledCluster(cpu.DefaultConfig(mode), cpu.SchedConfig{Cores: 1}, procs)
	})
	if err != nil {
		return err
	}
	i := l.tr.begin("cpu.cluster", modeName(mode))
	rs, err := cl.Run(maxInsts)
	var n uint64
	for _, r := range rs {
		n += r.Stats.Instructions
	}
	l.tr.end(i, n, 0)
	return err
}

// campaign runs one campaign under a span named kind+".campaign" whose
// work count is what the campaign reports (injections, chains fired),
// marshals its envelope, and checks it when a digest is pinned.
func (l *lab) campaign(kind, want string, run func() (results.Envelope, uint64, error)) []byte {
	var env results.Envelope
	var n uint64
	var err error
	i := l.tr.begin(kind+".campaign", "")
	env, n, err = run()
	l.tr.end(i, n, 0)
	if err != nil {
		l.fail(fmt.Errorf("%s campaign: %w", kind, err))
		return nil
	}
	body := l.marshal(env)
	if want != "" {
		l.check(kind, body, want)
	}
	return body
}

// canonicalCampaigns runs `experiments -mode faults|attacks|multicore`'s
// campaigns and checks each envelope against its golden digest.
func (l *lab) canonicalCampaigns(r *harness.Runner) {
	l.campaign("fault", l.dg.Campaigns["faults"], func() (results.Envelope, uint64, error) {
		rep, err := fault.RunCampaign(l.ctx, r, fault.Config{Seed: 42, Scale: 1, Bits: 1}, nil)
		if err != nil {
			return results.Envelope{}, 0, err
		}
		return rep.Envelope(), rep.Totals.Injected, nil
	})
	l.campaign("attack", l.dg.Campaigns["attacks"], func() (results.Envelope, uint64, error) {
		rep, err := attack.RunCampaign(l.ctx, r, attack.Config{Seed: 42, Scale: 1}, nil)
		if err != nil {
			return results.Envelope{}, 0, err
		}
		return rep.Envelope(), rep.Totals.ChainsFired, nil
	})
	l.campaign("multicore", l.dg.Campaigns["multicore"], func() (results.Envelope, uint64, error) {
		rep, err := multicore.RunCampaign(l.ctx, r, multicore.Config{Seed: 42, Scale: 1}, nil)
		if err != nil {
			return results.Envelope{}, 0, err
		}
		return rep.Envelope(), 0, nil
	})
}

// serviceRounds is how many shuffled rounds of the request mix the
// service sequence runs in-process.
const serviceRounds = 80

// seqService replays the service's request mix in-process: each job
// through the layers a vcfrd worker calls, with the service's prepared-app
// memo and trace reuse, each envelope checked against its pinned digest.
func seqService(l *lab, full bool) {
	rounds := serviceRounds
	if !full {
		rounds = 1
	}
	run := l.tr.run
	for i, j := range spec.Schedule(l.seed, rounds) {
		l.tr.run = fmt.Sprintf("%s.job-%d", run, i)
		l.job(j)
	}
	l.tr.run = run
}

// job executes one service request the way vcfrd's executor does and
// checks the result envelope.
func (l *lab) job(j spec.Job) {
	var body []byte
	switch j.Kind {
	case "run":
		app, err := l.memoPrepare(j.Workload, j.Seed)
		if err != nil {
			l.fail(err)
			return
		}
		res, ccfg, err := l.simulate(app, cpu.ModeVCFR, j.Instructions, serviceMutate, true)
		if err != nil {
			l.fail(err)
			return
		}
		body = l.marshal(results.NewRun(runRow(j.Workload, cpu.ModeVCFR, j.Seed, ccfg, res, app)))
	case "sweep":
		var rows []results.Run
		for _, name := range j.Workloads {
			seed := harness.CellSeed(j.Seed, "stats", name)
			app, err := l.memoPrepare(name, seed)
			if err != nil {
				l.fail(err)
				return
			}
			for _, mode := range modes {
				res, ccfg, err := l.simulate(app, mode, j.Instructions, nil, true)
				if err != nil {
					l.fail(err)
					return
				}
				rows = append(rows, runRow(name, mode, seed, ccfg, res, app))
			}
		}
		body = l.marshal(results.NewSweep(rows))
	case "faults":
		fmodes, _ := fault.ParseModes("all")
		kinds, _ := fault.ParseKinds(nil)
		body = l.campaign("fault", "", func() (results.Envelope, uint64, error) {
			rep, err := fault.RunCampaign(l.ctx, l.runner, fault.Config{
				Workloads: j.Workloads, Modes: fmodes, Kinds: kinds, Injections: j.Injections,
				Seed: j.Seed, Scale: 1, Spread: 8, MaxInsts: j.Instructions}, nil)
			if err != nil {
				return results.Envelope{}, 0, err
			}
			return rep.Envelope(), rep.Totals.Injected, nil
		})
	case "attacks":
		amodes, _ := attack.ParseModes("all")
		payloads, _ := attack.ParsePayloads(nil)
		body = l.campaign("attack", "", func() (results.Envelope, uint64, error) {
			rep, err := attack.RunCampaign(l.ctx, l.runner, attack.Config{
				Workloads: j.Workloads, Modes: amodes, Payloads: payloads, Seed: j.Seed,
				Scale: 1, Spread: 8, MaxInsts: j.Instructions, MaxLeaks: j.MaxLeaks,
				AdvanceInsts: j.AdvanceInsts}, nil)
			if err != nil {
				return results.Envelope{}, 0, err
			}
			return rep.Envelope(), rep.Totals.ChainsFired, nil
		})
	default:
		l.fail(fmt.Errorf("unknown job kind %q", j.Kind))
		return
	}
	if body != nil {
		l.check(j.Name(), body, l.dg.Service[spec.Key(j.Seed)][j.Name()])
	}
}

// serviceMutate is the machine configuration a run request with default
// fields describes.
func serviceMutate(c *cpu.Config) {
	c.DRCEntries = 128
	c.IssueWidth = 1
	c.ContextSwitchEvery = 0
	c.SampleEvery = 0
}

// seqInner times the layers the shipped commands call only from inside
// other layers: control-flow recovery and instruction decode, over every
// sweep workload's original image.
func seqInner(l *lab) {
	for _, name := range spec.SweepWorkloads {
		w, err := workloads.ByName(name, 1)
		if err != nil {
			l.fail(err)
			return
		}
		l.tr.do("cfg.build", "", func() { _, err = cfg.Build(w.Img) })
		if err != nil {
			l.fail(fmt.Errorf("%s: %w", name, err))
			return
		}
		text := w.Img.Text()
		i := l.tr.begin("isa.decode", "")
		var n uint64
		for off := 0; off < len(text.Data); {
			in, err := isa.Decode(text.Data[off:], text.Addr+uint32(off))
			if err != nil {
				off++ // padding or data between functions
				continue
			}
			off += in.Len()
			n++
		}
		l.tr.end(i, n, 0)
	}
}
