package trace

import (
	"bytes"
	"reflect"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/isa"
)

// TestRoundTripSynthetic packs hand-written records exercising every flag
// combination — sequential and far instruction-table jumps, negative memory
// and target deltas, derand counts, and a halt record — and checks the
// iterator and the materialized slice both give back exactly those records.
func TestRoundTripSynthetic(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpNop, Addr: 0x1000},
		{Op: isa.OpMovRR, Rd: 1, Rs: 2, Addr: 0x1001},
		{Op: isa.OpLoad, Rd: 3, Imm: -64, Addr: 0x1003},
		{Op: isa.OpCall, Target: 0x2000, Addr: 0x1009},
		{Op: isa.OpRet, Addr: 0x2000},
		{Op: isa.OpHalt, Addr: 0x100e},
	}
	recs := []cpu.ExecRecord{
		{Inst: insts[0]},
		{Inst: insts[1]},
		{Inst: insts[2], MemKind: emu.MemLoad, MemAddr: 0xfff0},
		{Inst: insts[3], Taken: true, Target: 0x9000_2000, MemKind: emu.MemStore, MemAddr: 0xffec},
		{Inst: insts[4], Taken: true, Target: 0x100e, MemKind: emu.MemLoad, MemAddr: 0xffec, Derands: 2},
		{Inst: insts[1]}, // revisit: non-sequential table index, backwards
		{Inst: insts[5], Halt: true},
	}
	b := newBuilder(Meta{MaxInsts: 1000})
	for _, r := range recs {
		b.add(r)
	}
	tr := b.finish(cpu.Result{Halted: true, ExitCode: 3, Out: []byte("done\n")})

	if !tr.Halted || tr.ExitCode != 3 || !bytes.Equal(tr.Out, []byte("done\n")) {
		t.Errorf("terminal state %v/%d/%q, want true/3/\"done\\n\"", tr.Halted, tr.ExitCode, tr.Out)
	}
	if !reflect.DeepEqual(tr.insts, insts) {
		t.Errorf("instruction table %v, want %v", tr.insts, insts)
	}
	var got []cpu.ExecRecord
	for it := tr.iter(); ; {
		r, ok := it.next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("iterated records:\ngot:  %+v\nwant: %+v", got, recs)
	}
	if !reflect.DeepEqual(tr.records(), recs) {
		t.Errorf("materialized records:\ngot:  %+v\nwant: %+v", tr.records(), recs)
	}
}
