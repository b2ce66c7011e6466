// Package trace captures the canonical dynamic execution of a (workload, ILR
// layout) pair and replays it through the cycle-level pipeline.
//
// A trace records, per executed instruction, exactly what the timing model
// consumes from the functional execute stage (see cpu.ExecRecord): the
// decoded instruction with its original-space PC, the control-transfer
// outcome with its architectural (possibly randomized-space) target, the
// data-memory access, and the VCFR auto-de-randomization count. Because the
// functional execution of a fixed (workload, layout, mode, instruction cap)
// is invariant under every timing knob — DRC geometry, issue width,
// context-switch interval, prediction space — one captured trace drives any
// number of timing configurations, and each replay reproduces the
// execute-driven Result bit for bit.
//
// A trace lives in memory only: a table of unique decoded instructions and a
// delta/varint-packed record stream (about 2 bytes per instruction), which
// the first replay materializes into a flat record slice.
package trace

import (
	"encoding/binary"
	"sync"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/isa"
)

// Meta describes the capture run: MaxInsts is its instruction cap, and a
// replay reproduces the capture's Result only at that same cap.
type Meta struct {
	MaxInsts uint64
}

// Trace is one captured execution. The packed record stream references the
// table of unique decoded instructions (keyed by full content, so
// self-modifying images stay faithful) by index.
type Trace struct {
	Meta     Meta
	Halted   bool   // the capture run halted (vs hitting the instruction cap)
	ExitCode uint32 // program exit code at capture end
	Out      []byte // program output at capture end

	insts []isa.Inst
	n     int    // record count
	recs  []byte // delta/varint-packed record stream

	matOnce sync.Once
	mat     []cpu.ExecRecord // materialized records, built on first replay
}

// SizeBytes approximates the trace's in-memory footprint once replayed: the
// first replay materializes the record stream into a flat slice (see
// records), so that slice is charged up front.
func (t *Trace) SizeBytes() int64 {
	const instSize = 24 // isa.Inst: packed field sizes, rounded up
	const recSize = 48  // cpu.ExecRecord, rounded up
	return int64(len(t.recs)) + int64(t.n)*recSize +
		int64(len(t.insts))*instSize + int64(len(t.Out)) + 128
}

// records returns the trace's record stream as a flat slice, decoding the
// packed form exactly once. Safe for concurrent replays of a shared trace;
// callers must not mutate the result.
func (t *Trace) records() []cpu.ExecRecord {
	t.matOnce.Do(func() {
		out := make([]cpu.ExecRecord, 0, t.n)
		it := t.iter()
		for {
			r, ok := it.next()
			if !ok {
				break
			}
			out = append(out, r)
		}
		t.mat = out
	})
	return t.mat
}

// builder accumulates ExecRecords into a Trace during a capture run.
type builder struct {
	t       *Trace
	idx     map[isa.Inst]int
	prevIdx int
	prevMem uint32
	prevTgt uint32
}

func newBuilder(meta Meta) *builder {
	return &builder{
		t:       &Trace{Meta: meta},
		idx:     make(map[isa.Inst]int),
		prevIdx: -1,
	}
}

// Record flag bits (one flags byte per packed record).
const (
	recMemKindMask = 0x03 // bits 0-1: emu.MemKind
	recTaken       = 1 << 2
	recHalt        = 1 << 3
	recDerands     = 1 << 4 // Derands > 0; count follows as uvarint
	recSeqInst     = 1 << 5 // instruction index == previous index + 1
)

// add appends one executed instruction's record. It is shaped to be passed
// directly to cpu.Pipeline.SetRecorder.
func (b *builder) add(r cpu.ExecRecord) {
	t := b.t
	i, ok := b.idx[r.Inst]
	if !ok {
		i = len(t.insts)
		b.idx[r.Inst] = i
		t.insts = append(t.insts, r.Inst)
	}

	flags := byte(r.MemKind) & recMemKindMask
	if r.Taken {
		flags |= recTaken
	}
	if r.Halt {
		flags |= recHalt
	}
	if r.Derands > 0 {
		flags |= recDerands
	}
	if i == b.prevIdx+1 {
		flags |= recSeqInst
	}
	t.recs = append(t.recs, flags)
	if flags&recSeqInst == 0 {
		t.recs = binary.AppendVarint(t.recs, int64(i)-int64(b.prevIdx))
	}
	b.prevIdx = i
	if r.MemKind != 0 {
		t.recs = binary.AppendVarint(t.recs, int64(int32(r.MemAddr-b.prevMem)))
		b.prevMem = r.MemAddr
	}
	if r.Taken {
		t.recs = binary.AppendVarint(t.recs, int64(int32(r.Target-b.prevTgt)))
		b.prevTgt = r.Target
	}
	if r.Derands > 0 {
		t.recs = binary.AppendUvarint(t.recs, uint64(r.Derands))
	}
	t.n++
}

// finish seals the trace with the capture run's terminal program state.
func (b *builder) finish(res cpu.Result) *Trace {
	t := b.t
	t.Halted = res.Halted
	t.ExitCode = res.ExitCode
	t.Out = append([]byte(nil), res.Out...)
	return t
}

// iter walks a trace's packed records in execution order.
type iter struct {
	t       *Trace
	pos     int
	prevIdx int
	prevMem uint32
	prevTgt uint32
}

func (t *Trace) iter() *iter { return &iter{t: t, prevIdx: -1} }

// next decodes the next record. ok=false at the end of the trace or on a
// malformed stream (a builder never writes one).
func (it *iter) next() (cpu.ExecRecord, bool) {
	t := it.t
	if it.pos >= len(t.recs) {
		return cpu.ExecRecord{}, false
	}
	flags := t.recs[it.pos]
	it.pos++

	idx := it.prevIdx + 1
	if flags&recSeqInst == 0 {
		d, ok := it.varint()
		if !ok {
			return cpu.ExecRecord{}, false
		}
		idx = it.prevIdx + int(d)
	}
	if idx < 0 || idx >= len(t.insts) {
		return cpu.ExecRecord{}, false
	}
	it.prevIdx = idx

	r := cpu.ExecRecord{
		Inst:  t.insts[idx],
		Taken: flags&recTaken != 0,
		Halt:  flags&recHalt != 0,
	}
	if flags&recMemKindMask > 2 {
		return cpu.ExecRecord{}, false // no such emu.MemKind
	}
	r.MemKind = emu.MemKind(flags & recMemKindMask)
	if r.MemKind != 0 {
		d, ok := it.varint()
		if !ok {
			return cpu.ExecRecord{}, false
		}
		it.prevMem += uint32(int32(d))
		r.MemAddr = it.prevMem
	}
	if r.Taken {
		d, ok := it.varint()
		if !ok {
			return cpu.ExecRecord{}, false
		}
		it.prevTgt += uint32(int32(d))
		r.Target = it.prevTgt
	}
	if flags&recDerands != 0 {
		v, n := binary.Uvarint(t.recs[it.pos:])
		if n <= 0 || v == 0 {
			return cpu.ExecRecord{}, false
		}
		it.pos += n
		r.Derands = int(v)
	}
	return r, true
}

func (it *iter) varint() (int64, bool) {
	v, n := binary.Varint(it.t.recs[it.pos:])
	if n <= 0 {
		return 0, false
	}
	it.pos += n
	return v, true
}

// replayer adapts a Trace to cpu.ReplaySource. It walks the materialized
// record slice, so replay pays no per-record varint decoding.
type replayer struct {
	t    *Trace
	recs []cpu.ExecRecord
	pos  int
}

// Next implements cpu.ReplaySource.
func (r *replayer) Next() (cpu.ExecRecord, bool) {
	if r.pos >= len(r.recs) {
		return cpu.ExecRecord{}, false
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, true
}

// Records exposes the materialized slice, enabling the pipeline's zero-copy
// replay fast path (see cpu.Pipeline.SetReplay). Callers must not mutate it.
func (r *replayer) Records() []cpu.ExecRecord { return r.recs }

// Final implements cpu.ReplaySource. The output is copied so concurrent
// replays of one trace never share the slice.
func (r *replayer) Final() ([]byte, uint32) {
	return append([]byte(nil), r.t.Out...), r.t.ExitCode
}

// Capture runs p for up to maxInsts instructions with a recorder attached
// and returns the sealed trace alongside the run's own Result.
func Capture(p *cpu.Pipeline, maxInsts uint64, meta Meta) (*Trace, cpu.Result, error) {
	b := newBuilder(meta)
	p.SetRecorder(b.add)
	res, err := p.Run(maxInsts)
	p.SetRecorder(nil)
	if err != nil {
		return nil, res, err
	}
	return b.finish(res), res, nil
}

// Replay drives p from t and returns the replayed Result. With maxInsts
// matching the capture run's cap, the Result is bit-identical to the
// execute-driven one.
func Replay(t *Trace, p *cpu.Pipeline, maxInsts uint64) (cpu.Result, error) {
	p.SetReplay(&replayer{t: t, recs: t.records()})
	return p.Run(maxInsts)
}
