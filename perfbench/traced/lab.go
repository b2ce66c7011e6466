package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/program"
	"vcfr/internal/realbin"
	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
	"vcfr/perfbench/spec"
)

var modes = []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}

// modeName is the short mode name metric names use.
func modeName(m cpu.Mode) string {
	if m == cpu.ModeNaiveILR {
		return "naive"
	}
	return m.String()
}

// executor is how a sequence executes a built pipeline and which runner
// the campaigns get. The default runs pipelines directly; tracelayer.go
// replaces it with record-once/replay-many execution, as the shipped
// commands use.
type executor interface {
	// run executes p. A non-empty key lets later runs with the same key
	// reuse this one's execution.
	run(t *tracer, p *cpu.Pipeline, key string, maxInsts uint64, tag string) (cpu.Result, error)
	// runner returns a harness runner configured like the shipped
	// commands' default one.
	runner() *harness.Runner
	// addMetrics reports the executor's own layer metrics.
	addMetrics(m map[string]metric, a layers)
}

// newExecutor builds one pass's executor; tracelayer.go replaces it at
// start-up.
var newExecutor = func() executor { return directExec{} }

// execSpans are the span names that execute a run functionally; the
// cpu.run_ns_per_instr metrics are taken over all of them.
var execSpans = []string{"cpu.run"}

type directExec struct{}

func (directExec) run(t *tracer, p *cpu.Pipeline, _ string, maxInsts uint64, tag string) (cpu.Result, error) {
	i := t.begin("cpu.run", tag)
	res, err := p.Run(maxInsts)
	t.end(i, res.Stats.Instructions, memEvents(res))
	return res, err
}

func (directExec) runner() *harness.Runner { return harness.NewRunner(0) }

func (directExec) addMetrics(map[string]metric, layers) {}

// memEvents counts the memory-hierarchy accesses a run simulated.
func memEvents(r cpu.Result) uint64 {
	return r.IL1.Accesses + r.DL1.Accesses + r.L2.Accesses + r.DRAM.Accesses
}

// simCount accumulates the exact simulated counts of one mode's runs.
type simCount struct {
	insts, cycles, il1Misses, l2Accesses, dramAccesses uint64
	drcLookups, drcMisses                              uint64
}

// lab is one pass over one or more sequences: the tracer, the executor,
// the accumulated counts, and the output checks.
type lab struct {
	ctx    context.Context
	tr     *tracer
	ex     executor
	runner *harness.Runner // shared by every campaign and experiment of the pass, as in vcfrd
	pool   int64           // program seed
	seed   int64           // benchmark seed
	dg     *spec.Digests
	inputs map[string][]byte // program input by inputKey, built before any pass
	apps   map[string]*harness.App

	sims    map[cpu.Mode]*simCount
	bbHits  map[string]uint64  // block-cache hits by run tag
	bbMiss  map[string]uint64  // blocks decoded by run tag
	figures map[string]float64 // modelled headline values by figure

	attempted, failed int
}

func newLab(ctx context.Context, on bool, pool, seed int64, dg *spec.Digests, inputs map[string][]byte) *lab {
	ex := newExecutor()
	return &lab{ctx: ctx, tr: newTracer(on), ex: ex, runner: ex.runner(), pool: pool, seed: seed, dg: dg,
		inputs: inputs, apps: map[string]*harness.App{}, sims: map[cpu.Mode]*simCount{},
		bbHits: map[string]uint64{}, bbMiss: map[string]uint64{}, figures: map[string]float64{}}
}

// check compares an output with its pinned digest; a mismatch or a missing
// pin counts as a failed operation.
func (l *lab) check(what string, body []byte, want string) {
	l.attempted++
	if err := spec.Check(what, body, want); err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "traced: FAIL %v\n", err)
	}
}

// fail counts an operation that errored.
func (l *lab) fail(err error) {
	l.attempted++
	l.failed++
	fmt.Fprintf(os.Stderr, "traced: FAIL %v\n", err)
}

func inputKey(name string, scale int) string { return fmt.Sprintf("%s@%d", name, scale) }

// prepare builds and randomizes one workload through the layers' public
// functions, as harness.Prepare does: generate and assemble (or load and
// lift an ELF fixture), then rewrite.
func (l *lab) prepare(name string, scale int, seed int64) (*harness.App, error) {
	var w workloads.Workload
	var err error
	if fx, ok := fixtures.ByName(name); ok {
		var lifted *realbin.Lifted
		i := l.tr.begin("realbin.load", "")
		lifted, err = realbin.Load(fx.Data, fx.Name)
		l.tr.end(i, uint64(len(fx.Data)), 0)
		if err != nil {
			return nil, err
		}
		w = workloads.Workload{Name: fx.Name, Desc: fx.Desc, Source: workloads.SourceELF, Img: lifted.Img}
	} else {
		var src string
		l.tr.do("workloads.gen", "", func() { src, err = workloads.Source(name, scale) })
		if err != nil {
			return nil, err
		}
		var img *program.Image
		i := l.tr.begin("asm.assemble", "")
		img, err = asm.Assemble(name, src)
		l.tr.end(i, uint64(len(src)), 0)
		if err != nil {
			return nil, err
		}
		w = workloads.Workload{Name: name, Source: workloads.SourceSynthetic, Img: img, Input: l.inputs[inputKey(name, scale)]}
	}
	var r *ilr.Result
	l.tr.do("ilr.rewrite", "", func() { r, err = ilr.Rewrite(w.Img, ilr.Options{Seed: seed, Spread: 8}) })
	if err != nil {
		return nil, err
	}
	return &harness.App{W: w, R: r}, nil
}

// memoPrepare is prepare with the service's prepared-app memo.
func (l *lab) memoPrepare(name string, seed int64) (*harness.App, error) {
	k := fmt.Sprintf("%s|%d", name, seed)
	if app, ok := l.apps[k]; ok {
		return app, nil
	}
	app, err := l.prepare(name, 1, seed)
	if err == nil {
		l.apps[k] = app
	}
	return app, err
}

// runTag names a run's execution class: the mode for synthetic code, "elf"
// for lifted code under VCFR and "elf.<mode>" otherwise.
func runTag(app *harness.App, mode cpu.Mode) string {
	if app.W.Source != workloads.SourceELF {
		return modeName(mode)
	}
	if mode == cpu.ModeVCFR {
		return "elf"
	}
	return "elf." + modeName(mode)
}

// simulate builds a pipeline for app in mode and executes it; reuse names
// whether the execution may be recorded for, or replayed from, an earlier
// run of the same app, mode and budget.
func (l *lab) simulate(app *harness.App, mode cpu.Mode, maxInsts uint64, mutate func(*cpu.Config), reuse bool) (cpu.Result, cpu.Config, error) {
	var p *cpu.Pipeline
	var ccfg cpu.Config
	var err error
	l.tr.do("cpu.new", "", func() { p, ccfg, err = app.Pipeline(mode, mutate) })
	if err != nil {
		return cpu.Result{}, ccfg, err
	}
	key := ""
	if reuse {
		key = fmt.Sprintf("%s|%d|%v|%d", app.W.Name, app.R.Opts.Seed, mode, maxInsts)
	}
	tag := runTag(app, mode)
	res, err := l.ex.run(l.tr, p, key, maxInsts, tag)
	if err != nil {
		return res, ccfg, fmt.Errorf("%s under %v: %w", app.W.Name, mode, err)
	}
	bb := p.BlockCacheStats()
	l.bbHits[tag] += bb.Hits
	l.bbMiss[tag] += bb.Blocks
	s := l.sims[mode]
	if s == nil {
		s = &simCount{}
		l.sims[mode] = s
	}
	s.insts += res.Stats.Instructions
	s.cycles += res.Stats.Cycles
	s.il1Misses += res.IL1.Misses
	s.l2Accesses += res.L2.Accesses
	s.dramAccesses += res.DRAM.Accesses
	s.drcLookups += res.DRC.Lookups
	s.drcMisses += res.DRC.Misses
	return res, ccfg, nil
}

// runRow builds the wire row for one finished run exactly as the harness
// does, so envelopes built here hash like the shipped commands' output.
func runRow(name string, mode cpu.Mode, seed int64, ccfg cpu.Config, res cpu.Result, app *harness.App) results.Run {
	row := results.Run{
		Workload:  name,
		Mode:      mode.String(),
		Seed:      seed,
		Config:    ccfg,
		Result:    res,
		Intervals: results.MakeIntervals(res.Intervals),
	}
	if mode != cpu.ModeBaseline {
		st := app.R.Stats
		row.Ilr = &st
	}
	return row
}

// marshal serializes an envelope through the results layer.
func (l *lab) marshal(env results.Envelope) []byte {
	i := l.tr.begin("results.marshal", "")
	b, err := results.Marshal(env)
	l.tr.end(i, uint64(len(b)), 0)
	if err != nil {
		l.fail(err)
	}
	return b
}

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
