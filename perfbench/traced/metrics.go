package main

import (
	"fmt"
	"io"
	"time"

	"vcfr/internal/cpu"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerSum is the self time and work of every span of one layer call.
type layerSum struct {
	self time.Duration
	n, m uint64
}

// layers sums spans by name ("cpu.run") and by name and tag
// ("cpu.run|vcfr").
type layers map[string]*layerSum

func aggregate(spans []span, self []time.Duration) layers {
	a := layers{}
	add := func(k string, s span, d time.Duration) {
		ls := a[k]
		if ls == nil {
			ls = &layerSum{}
			a[k] = ls
		}
		ls.self += d
		ls.n += s.N
		ls.m += s.M
	}
	for i, s := range spans {
		add(s.Name, s, self[i])
		if s.Tag != "" {
			add(s.Name+"|"+s.Tag, s, self[i])
		}
	}
	return a
}

// sum totals the named layers, restricted to one tag unless tag is "".
func (a layers) sum(names []string, tag string) layerSum {
	var t layerSum
	for _, n := range names {
		k := n
		if tag != "" {
			k += "|" + tag
		}
		if ls := a[k]; ls != nil {
			t.self += ls.self
			t.n += ls.n
			t.m += ls.m
		}
	}
	return t
}

func (a layers) ms(name string) float64 {
	return float64(a.sum([]string{name}, "").self) / 1e6
}

// nsPerN is self nanoseconds per unit of the spans' first work count.
func (a layers) nsPerN(names []string, tag string) float64 {
	t := a.sum(names, tag)
	return ratio(float64(t.self), float64(t.n))
}

// nsPerM is self nanoseconds per unit of the spans' second work count.
func (a layers) nsPerM(names []string, tag string) float64 {
	t := a.sum(names, tag)
	return ratio(float64(t.self), float64(t.m))
}

// perSecond is work units per second of self time.
func (a layers) perSecond(name string) float64 {
	t := a.sum([]string{name}, "")
	return ratio(float64(t.n), t.self.Seconds())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics of a traced pass.
func layerMetrics(l *lab, a layers) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("cpu.new_ms", "ms", a.ms("cpu.new"))
	for _, tag := range []string{"baseline", "naive", "vcfr", "elf"} {
		put("cpu.run_ns_per_instr."+tag, "ns", a.nsPerN(execSpans, tag))
	}
	for _, mode := range modes {
		tag := modeName(mode)
		put("cpu.bbcache.hit_ratio."+tag, "ratio",
			ratio(float64(l.bbHits[tag]), float64(l.bbHits[tag]+l.bbMiss[tag])))
		put("cpu.run_ns_per_mem_event."+tag, "ns", a.nsPerM(execSpans, tag))
		s := l.sims[mode]
		if s == nil {
			s = &simCount{}
		}
		put("mem.il1.misses."+tag, "count", float64(s.il1Misses))
		put("mem.l2.accesses."+tag, "count", float64(s.l2Accesses))
		put("dram.accesses."+tag, "count", float64(s.dramAccesses))
		put("cpu.ipc."+tag, "instr/cycle", ratio(float64(s.insts), float64(s.cycles)))
	}
	if s := l.sims[cpu.ModeVCFR]; s != nil {
		put("drc.miss_ratio", "ratio", ratio(float64(s.drcMisses), float64(s.drcLookups)))
	} else {
		put("drc.miss_ratio", "ratio", 0)
	}

	for _, layer := range []string{"workloads.gen", "asm.assemble", "realbin.load", "cfg.build", "ilr.rewrite", "gadget.scan", "results.marshal"} {
		put(layer+"_ms", "ms", a.ms(layer))
	}
	put("isa.decode_ns_per_inst", "ns", a.nsPerN([]string{"isa.decode"}, ""))
	put("results.bytes", "bytes", float64(a.sum([]string{"results.marshal"}, "").n))
	put("emu.native_ns_per_instr", "ns", a.nsPerN([]string{"emu.native"}, ""))
	put("emu.emulated_ns_per_instr", "ns", a.nsPerN([]string{"emu.emulated"}, ""))
	for _, tag := range []string{"baseline", "vcfr"} {
		put("cpu.cluster_ns_per_instr."+tag, "ns", a.nsPerN([]string{"cpu.cluster"}, tag))
	}
	for _, kind := range []string{"fault", "attack", "multicore"} {
		put(kind+".campaign_s", "s", a.ms(kind+".campaign")/1e3)
	}
	put("fault.injections_per_s", "1/s", a.perSecond("fault.campaign"))
	put("attack.fires_per_s", "1/s", a.perSecond("attack.campaign"))
	l.ex.addMetrics(m, a)
	return m
}

// recon is one reconciliation row: a sequence's wall time untraced (zero
// for probes, which run traced only) and traced, and the self time its
// layer spans account for.
type recon struct {
	name             string
	untraced, traced time.Duration
	layerSelf        time.Duration
}

func (r recon) other() time.Duration { return r.traced - r.layerSelf }

// report prints the reconciliation rows, the attribution pairs and the
// modelled headline figures.
func report(w io.Writer, rows []recon, m map[string]metric, figures map[string]float64) {
	fmt.Fprintln(w, "reconciliation (ms):")
	fmt.Fprintf(w, "  %-16s %10s %10s %12s %14s %16s\n", "sequence", "untraced", "traced", "layer self", "harness.other", "trace overhead")
	for _, r := range rows {
		untraced, overhead := "-", "-"
		if r.untraced > 0 {
			untraced = fmt.Sprintf("%.1f", ms(r.untraced))
			overhead = fmt.Sprintf("%.1f", ms(r.traced-r.untraced))
		}
		fmt.Fprintf(w, "  %-16s %10s %10.1f %12.1f %14.1f %16s\n",
			r.name, untraced, ms(r.traced), ms(r.layerSelf), ms(r.other()), overhead)
	}
	fmt.Fprintln(w, "attribution pairs (first / second):")
	pair := func(label, a, b string) {
		fmt.Fprintf(w, "  %-30s %-34s %9.2f / %9.2f = %.3f\n", label, a+" / "+b,
			m[a].Value, m[b].Value, ratio(m[a].Value, m[b].Value))
	}
	pair("lifted vs synthetic", "cpu.run_ns_per_instr.elf", "cpu.run_ns_per_instr.vcfr")
	pair("replay vs execute", "trace.replay_ns_per_instr", "cpu.run_ns_per_instr.vcfr")
	pair("cluster VCFR vs baseline", "cpu.cluster_ns_per_instr.vcfr", "cpu.cluster_ns_per_instr.baseline")
	pair("naive ILR host cost per instr", "cpu.run_ns_per_instr.naive", "cpu.run_ns_per_instr.baseline")
	pair("naive ILR host cost per event", "cpu.run_ns_per_mem_event.naive", "cpu.run_ns_per_mem_event.baseline")
	if len(figures) == 0 {
		fmt.Fprintln(w, "modelled figures: reported by the paper workload's traced run")
		return
	}
	fmt.Fprintln(w, "modelled figures (paper, model, error):")
	for _, f := range []struct {
		id, what string
		paper    float64
	}{
		{"fig12", "VCFR speedup over naive ILR (x)", 1.63},
		{"fig13", "normalized IPC @64 DRC entries", 0.979},
		{"fig14", "DRC miss rate @64 entries", 0.206},
	} {
		v := figures[f.id]
		fmt.Fprintf(w, "  %-6s %-34s paper %.3f  model %.3f  error %+.1f%%\n",
			f.id, f.what, f.paper, v, 100*ratio(v-f.paper, f.paper))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
