package main

// The trace layer: record-once/replay-many execution through
// internal/trace, as the shipped commands run with their default trace
// cache. Everything that touches internal/trace is in this file; without
// it the sequences execute every run directly and the trace.* metrics are
// not reported.

import (
	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/trace"
)

// traceCacheMiB is the shipped commands' default -trace-cache budget.
const traceCacheMiB = 256

func init() {
	newExecutor = func() executor { return &traceExec{traces: map[string]*trace.Trace{}} }
	// A capture executes the run while recording it.
	execSpans = append(execSpans, "trace.capture")
}

// traceExec captures every run's functional trace; a run whose key was
// captured before replays it instead of executing.
type traceExec struct {
	traces       map[string]*trace.Trace
	hits, misses uint64
	bytes        uint64 // trace bytes captured
}

func (x *traceExec) run(t *tracer, p *cpu.Pipeline, key string, maxInsts uint64, tag string) (cpu.Result, error) {
	if tr, ok := x.traces[key]; ok && key != "" {
		x.hits++
		i := t.begin("trace.replay", tag)
		res, err := trace.Replay(tr, p, maxInsts)
		t.end(i, res.Stats.Instructions, memEvents(res))
		return res, err
	}
	x.misses++
	i := t.begin("trace.capture", tag)
	tr, res, err := trace.Capture(p, maxInsts, trace.Meta{MaxInsts: maxInsts})
	t.end(i, res.Stats.Instructions, memEvents(res))
	if err != nil {
		return res, err
	}
	x.bytes += uint64(tr.SizeBytes())
	if key != "" {
		x.traces[key] = tr
	}
	return res, nil
}

func (x *traceExec) runner() *harness.Runner {
	r := harness.NewRunner(0)
	r.Traces = trace.NewCache(traceCacheMiB << 20)
	return r
}

func (x *traceExec) addMetrics(m map[string]metric, a layers) {
	m["trace.capture_ns_per_instr"] = metric{a.nsPerN([]string{"trace.capture"}, ""), "ns"}
	m["trace.replay_ns_per_instr"] = metric{a.nsPerN([]string{"trace.replay"}, ""), "ns"}
	ratio := 0.0
	if n := x.hits + x.misses; n > 0 {
		ratio = float64(x.hits) / float64(n)
	}
	m["trace.cache.hit_ratio"] = metric{ratio, "ratio"}
	m["trace.bytes"] = metric{float64(x.bytes), "bytes"}
}
