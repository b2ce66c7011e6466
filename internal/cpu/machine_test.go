package cpu

import (
	"reflect"
	"testing"

	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/mem"
	"vcfr/internal/workloads"
)

// recycleApp is one workload with its rewrite, as the recycling tests run it.
type recycleApp struct {
	w   workloads.Workload
	res *ilr.Result
}

func recycleWorkload(t *testing.T, name string) recycleApp {
	t.Helper()
	w := workloads.MustByName(name, 1)
	res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return recycleApp{w, res}
}

// on builds a pipeline for a under cfg on storage m, exactly as New and
// Release would hand it over.
func (a recycleApp) on(cfg Config, m *machine) *Pipeline {
	img, trans, randRA := cfg.Mode.Deploy(a.res)
	p := assemble(img, cfg, trans, randRA, m)
	p.own = m
	p.SetInput(a.w.Input)
	return p
}

// TestRecycledPipelineMatchesFresh runs workload A on a pipeline, releases
// it, and runs workload B on the recycled storage: B's Result must equal a
// run of B on freshly allocated storage, whatever A left behind — a plain
// run, a fault injection, a hijacking fire, a mid-run re-randomization or a
// run that died on an error — under every mode and the configurations
// whose storage differs (level-2 and split DRCs) or that exercise it
// differently (context switches, interval sampling).
func TestRecycledPipelineMatchesFresh(t *testing.T) {
	// Both workloads leave their initialization loops within the budget,
	// so B's predictor, BTB, DRC and cache behaviour depends on its
	// starting state.
	const insts = 30_000
	a, b := recycleWorkload(t, "h264ref"), recycleWorkload(t, "gcc")

	type config struct {
		name   string
		mode   Mode
		mutate func(*Config)
	}
	var configs []config
	for _, mode := range AllModes() {
		configs = append(configs,
			config{mode.String(), mode, nil},
			config{mode.String() + "/sampled+switched", mode, func(c *Config) {
				c.SampleEvery, c.ContextSwitchEvery = 1500, 2700
			}})
	}
	configs = append(configs,
		config{"vcfr/drc2", ModeVCFR, func(c *Config) { c.DRC2Entries = 512 }},
		config{"vcfr/split", ModeVCFR, func(c *Config) { c.DRCSplit, c.DRCAssoc = true, 2 }})

	// Each predecessor dirties the storage its own way before Release.
	predecessors := []struct {
		name     string
		run      func(t *testing.T, p *Pipeline)
		randOnly bool // needs a layout to re-randomize
	}{
		{name: "plain", run: func(t *testing.T, p *Pipeline) {
			if _, err := p.Run(insts); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "injected", run: func(t *testing.T, p *Pipeline) {
			p.SetInjector(&InjectHooks{Outcome: func(seq uint64, in isa.Inst, out *emu.Outcome) {
				if seq%97 == 0 && out.MemKind != emu.MemNone {
					out.MemAddr ^= 0x40
				}
			}})
			_, _ = p.Run(insts) // the fault may or may not kill the run
		}},
		{name: "fired", run: func(t *testing.T, p *Pipeline) {
			fired := false
			entry := p.PC()
			p.SetInjector(&InjectHooks{Outcome: func(seq uint64, in isa.Inst, out *emu.Outcome) {
				if fired || in.Class() != isa.ClassRet {
					return
				}
				fired = true
				out.Target = entry
				p.State().Mem.WriteWord(out.MemAddr+4, 0xdead_beef)
			}})
			_, _ = p.Run(insts)
		}},
		{name: "errored", run: func(t *testing.T, p *Pipeline) {
			p.SetInjector(&InjectHooks{Outcome: func(seq uint64, in isa.Inst, out *emu.Outcome) {
				if seq > 3000 && in.Class().IsControl() {
					out.Target = 0x0dea_d000
				}
			}})
			if _, err := p.Run(insts); err == nil {
				t.Fatal("a jump into unmapped memory did not fail the run")
			}
		}},
		{name: "rerandomized", randOnly: true, run: func(t *testing.T, p *Pipeline) {
			if _, err := p.Run(insts / 2); err != nil {
				t.Fatal(err)
			}
			next, err := a.res.Rerandomize(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Rerandomize(next); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(insts); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, c := range configs {
		cfg := DefaultConfig(c.mode)
		if c.mutate != nil {
			c.mutate(&cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh, err := newMachine(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.on(cfg, fresh).Run(insts)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", c.name, err)
		}
		for _, pred := range predecessors {
			if pred.randOnly && c.mode == ModeBaseline {
				continue
			}
			t.Run(c.name+"/"+pred.name, func(t *testing.T) {
				m, err := newMachine(cfg, true)
				if err != nil {
					t.Fatal(err)
				}
				pa := a.on(cfg, m)
				pred.run(t, pa)
				pa.Release()
				if pa.own != nil || pa.state != nil || pa.bb != nil || pa.reg != nil || pa.inject != nil {
					t.Fatal("a released pipeline kept run state")
				}
				for _, d := range []*drc{m.drc, m.drc2} {
					if d != nil && d.trans != nil {
						t.Fatal("recycled storage kept the predecessor's translator")
					}
				}
				got, err := b.on(cfg, m).Run(insts)
				if err != nil {
					t.Fatalf("recycled run: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("recycled run differs from a fresh one:\n got %+v\nwant %+v", got.Stats, want.Stats)
				}
			})
		}
	}
}

// TestReleaseThroughPool releases pipelines into the pool and builds more
// with New, which may or may not get recycled storage: every run must
// match the first, and a released pipeline must refuse to run again.
func TestReleaseThroughPool(t *testing.T) {
	b := recycleWorkload(t, "xalan")
	cfg := DefaultConfig(ModeVCFR)
	img, trans, randRA := cfg.Mode.Deploy(b.res)
	var want Result
	for i := 0; i < 4; i++ {
		p, err := New(img, cfg, trans, randRA)
		if err != nil {
			t.Fatal(err)
		}
		p.SetInput(b.w.Input)
		got, err := p.Run(10_000)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from run 0", i)
		}
		p.Release()
		p.Release() // a second Release is a no-op, not a second pool entry
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a released pipeline ran")
				}
			}()
			_, _ = p.Run(20_000)
		}()
	}
}

// TestBorrowedHierarchyNeverPooled builds a pipeline on a borrowed (shared
// L2) hierarchy: it owns no recyclable storage, and Release leaves the
// shared levels untouched and out of the pool.
func TestBorrowedHierarchyNeverPooled(t *testing.T) {
	b := recycleWorkload(t, "xalan")
	cfg := DefaultConfig(ModeVCFR)
	hiers, err := mem.NewSharedHierarchy(cfg.Mem, 2)
	if err != nil {
		t.Fatal(err)
	}
	shared := hiers[0]
	img, trans, randRA := cfg.Mode.Deploy(b.res)
	p, err := NewWithHierarchy(img, cfg, trans, randRA, shared)
	if err != nil {
		t.Fatal(err)
	}
	if p.own != nil {
		t.Fatal("a pipeline on a borrowed hierarchy owns recyclable storage")
	}
	p.SetInput(b.w.Input)
	if _, err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	l2 := shared.L2.Stats()
	p.Release()
	if shared.L2.Stats() != l2 || l2.Accesses == 0 {
		t.Fatal("Release reset the borrowed hierarchy")
	}
	for i := 0; i < 8; i++ {
		q, err := New(img, cfg, trans, randRA)
		if err != nil {
			t.Fatal(err)
		}
		if q.Hierarchy() == shared || q.Hierarchy().L2 == shared.L2 {
			t.Fatal("New handed out a borrowed hierarchy")
		}
		q.Release()
	}
}
