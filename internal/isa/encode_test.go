package isa

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// sampleInstructions returns one representative instruction per opcode, with
// operands exercising sign extension and register-field packing.
func sampleInstructions() []Inst {
	return []Inst{
		{Op: OpNop},
		{Op: OpHalt},
		{Op: OpRet},
		{Op: OpSys, Imm: SysWriteInt},
		{Op: OpMovRR, Rd: 15, Rs: 1},
		{Op: OpMovRI, Rd: 7, Imm: -123456789},
		{Op: OpAdd, Rd: 1, Rs: 2},
		{Op: OpSub, Rd: 3, Rs: 4},
		{Op: OpAnd, Rd: 5, Rs: 6},
		{Op: OpOr, Rd: 7, Rs: 8},
		{Op: OpXor, Rd: 9, Rs: 10},
		{Op: OpShl, Rd: 11, Rs: 12},
		{Op: OpShr, Rd: 13, Rs: 14},
		{Op: OpSar, Rd: 15, Rs: 0},
		{Op: OpMul, Rd: 2, Rs: 3},
		{Op: OpDiv, Rd: 4, Rs: 5},
		{Op: OpMod, Rd: 6, Rs: 7},
		{Op: OpNeg, Rd: 8},
		{Op: OpNot, Rd: 9},
		{Op: OpAddI, Rd: 1, Imm: -32768},
		{Op: OpSubI, Rd: 2, Imm: 32767},
		{Op: OpAndI, Rd: 3, Imm: -1},
		{Op: OpOrI, Rd: 4, Imm: 255},
		{Op: OpXorI, Rd: 5, Imm: -256},
		{Op: OpShlI, Rd: 6, Imm: 31},
		{Op: OpShrI, Rd: 7, Imm: 1},
		{Op: OpSarI, Rd: 8, Imm: 16},
		{Op: OpCmp, Rd: 9, Rs: 10},
		{Op: OpCmpI, Rd: 11, Imm: -42},
		{Op: OpTest, Rd: 12, Rs: 13},
		{Op: OpLoad, Rd: 1, Rs: RegSP, Imm: 4},
		{Op: OpStore, Rd: RegBP, Rs: 2, Imm: -8},
		{Op: OpLoadB, Rd: 3, Rs: 4, Imm: 100},
		{Op: OpStoreB, Rd: 5, Rs: 6, Imm: -100},
		{Op: OpLea, Rd: 7, Rs: 8, Imm: 64},
		{Op: OpLoadR, Rd: 1, Rs: 2, Rt: 3},
		{Op: OpStoreR, Rd: 4, Rs: 5, Rt: 6},
		{Op: OpPush, Rd: RegBP},
		{Op: OpPop, Rd: RegBP},
		{Op: OpJmp, Target: 0xdeadbeef},
		{Op: OpJe, Target: 0},
		{Op: OpJne, Target: 0xffffffff},
		{Op: OpJl, Target: 0x1000},
		{Op: OpJge, Target: 0x2000},
		{Op: OpJg, Target: 0x3000},
		{Op: OpJle, Target: 0x4000},
		{Op: OpJb, Target: 0x5000},
		{Op: OpJae, Target: 0x6000},
		{Op: OpCall, Target: 0x8000},
		{Op: OpJmpR, Rd: 1},
		{Op: OpCallR, Rd: 2},
	}
}

func TestEncodeDecodeRoundTripAllOpcodes(t *testing.T) {
	samples := sampleInstructions()
	covered := make(map[Op]bool, len(samples))
	for _, want := range samples {
		covered[want.Op] = true
		enc := Encode(nil, want)
		if len(enc) != want.Op.Length() {
			t.Errorf("%s: encoded length %d, want %d", want.Op, len(enc), want.Op.Length())
		}
		got, err := Decode(enc, 0x4000)
		if err != nil {
			t.Errorf("%s: Decode: %v", want.Op, err)
			continue
		}
		want.Addr = 0x4000
		if got != want {
			t.Errorf("round trip mismatch:\n got  %+v\n want %+v", got, want)
		}
	}
	for op := OpInvalid + 1; op < numOps; op++ {
		if !covered[op] {
			t.Errorf("opcode %s not covered by round-trip samples", op)
		}
	}
}

// TestDecodeErrors pins every rejection branch of Decode: each must match
// its sentinel under errors.Is and, past an empty buffer (which returns the
// bare ErrTruncated), be a *DecodeError whose message is exactly the text
// the decoder has always produced (the emulator's "fetch: ..." faults embed
// it). The switch's default arm is unreachable for a valid opcode and
// shares the bad-opcode message.
func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
		addr uint32
		want error
		msg  string
	}{
		{"empty", nil, 0, ErrTruncated, "isa: truncated instruction"},
		{"zero byte", []byte{0x00}, 0x1000, ErrBadOpcode,
			"isa: invalid opcode byte: 0x00 at 0x1000"},
		{"undefined opcode", []byte{0xee}, 0x1002, ErrBadOpcode,
			"isa: invalid opcode byte: 0xee at 0x1002"},
		{"first undefined opcode", []byte{byte(numOps)}, 0x1004, ErrBadOpcode,
			"isa: invalid opcode byte: 0x34 at 0x1004"},
		{"0xff opcode", []byte{0xff, 1, 2}, 0x40000000, ErrBadOpcode,
			"isa: invalid opcode byte: 0xff at 0x40000000"},
		{"truncated movi", Encode(nil, Inst{Op: OpMovRI, Rd: 1, Imm: 5})[:3], 0x2000, ErrTruncated,
			"isa: truncated instruction: movi at 0x2000 needs 6 bytes, have 3"},
		{"truncated jmp", Encode(nil, Inst{Op: OpJmp, Target: 0x100})[:2], 0x2010, ErrTruncated,
			"isa: truncated instruction: jmp at 0x2010 needs 5 bytes, have 2"},
		{"truncated sys", []byte{byte(OpSys)}, 0, ErrTruncated,
			"isa: truncated instruction: sys at 0x0 needs 2 bytes, have 1"},
		{"push bad reg", []byte{byte(OpPush), 16}, 0x3000, ErrBadOperand,
			"isa: invalid operand encoding: push reg 16 at 0x3000"},
		{"callr bad reg", []byte{byte(OpCallR), 0xff}, 0x3002, ErrBadOperand,
			"isa: invalid operand encoding: callr reg 255 at 0x3002"},
		{"shli bad reg", []byte{byte(OpShlI), 0x20, 3}, 0x3004, ErrBadOperand,
			"isa: invalid operand encoding: shli reg 32 at 0x3004"},
		{"sari bad reg", []byte{byte(OpSarI), 17, 3}, 0x3008, ErrBadOperand,
			"isa: invalid operand encoding: sari reg 17 at 0x3008"},
		{"loadr bad index", []byte{byte(OpLoadR), 0x12, 99}, 0x3010, ErrBadOperand,
			"isa: invalid operand encoding: loadr index reg 99 at 0x3010"},
		{"storer bad index", []byte{byte(OpStoreR), 0x12, 16}, 0x3014, ErrBadOperand,
			"isa: invalid operand encoding: storer index reg 16 at 0x3014"},
		{"addi bad reg", []byte{byte(OpAddI), 16, 0, 0}, 0x3020, ErrBadOperand,
			"isa: invalid operand encoding: addi reg 16 at 0x3020"},
		{"cmpi bad reg", []byte{byte(OpCmpI), 0xf0, 1, 0}, 0x3024, ErrBadOperand,
			"isa: invalid operand encoding: cmpi reg 240 at 0x3024"},
		{"movi bad reg", []byte{byte(OpMovRI), 200, 0, 0, 0, 0}, 0x3030, ErrBadOperand,
			"isa: invalid operand encoding: movi reg 200 at 0x3030"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(tt.buf, tt.addr)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Decode error = %v, want %v", err, tt.want)
			}
			if got := err.Error(); got != tt.msg {
				t.Errorf("Error() = %q, want %q", got, tt.msg)
			}
			if len(tt.buf) == 0 {
				return
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("errors.As(%T) into *DecodeError failed", err)
			}
			if de.Addr != tt.addr {
				t.Errorf("DecodeError.Addr = %#x, want %#x", de.Addr, tt.addr)
			}
		})
	}
}

// TestDecodeRejectAllocs bounds the cost of the scanner's common case: a
// zero byte rejects with at most the error value's own allocation, no
// formatting.
func TestDecodeRejectAllocs(t *testing.T) {
	buf := []byte{0x00, 0x00, 0x00}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Decode(buf, 0x1000); err == nil {
			t.Fatal("zero byte decoded")
		}
	})
	if allocs > 1 {
		t.Errorf("Decode of a zero byte: %.1f allocs, want <= 1", allocs)
	}
}

// TestTryDecodeMatchesDecode checks that the allocation-free probe accepts
// exactly what Decode accepts, with the same instruction, on random bytes,
// and that it never allocates.
func TestTryDecodeMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 4096)
	rng.Read(buf)
	for off := 0; off <= len(buf); off++ {
		want, err := Decode(buf[off:], 0x1000+uint32(off))
		got, ok := TryDecode(buf[off:], 0x1000+uint32(off))
		if ok != (err == nil) || got != want {
			t.Fatalf("offset %d: TryDecode = %+v, %v; Decode = %+v, %v", off, got, ok, want, err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for off := 0; off < 64; off++ {
			TryDecode(buf[off:], 0x1000)
		}
	})
	if allocs != 0 {
		t.Errorf("TryDecode: %.1f allocs per 64 probes, want 0", allocs)
	}
}

func TestDecodeStreamOfConcatenatedInstructions(t *testing.T) {
	samples := sampleInstructions()
	var code []byte
	for _, in := range samples {
		code = Encode(code, in)
	}
	addr := uint32(0x1000)
	off := 0
	for i, want := range samples {
		got, err := Decode(code[off:], addr)
		if err != nil {
			t.Fatalf("inst %d: %v", i, err)
		}
		want.Addr = addr
		if got != want {
			t.Fatalf("inst %d mismatch:\n got  %+v\n want %+v", i, got, want)
		}
		off += got.Len()
		addr += uint32(got.Len())
	}
	if off != len(code) {
		t.Errorf("consumed %d of %d bytes", off, len(code))
	}
}

func TestPatchTarget(t *testing.T) {
	code := Encode(nil, Inst{Op: OpCall, Target: 0x1111})
	code = Encode(code, Inst{Op: OpRet})
	if err := PatchTarget(code, 0, 0xcafebabe); err != nil {
		t.Fatalf("PatchTarget: %v", err)
	}
	in, err := Decode(code, 0)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if in.Target != 0xcafebabe {
		t.Errorf("patched target = %#x, want 0xcafebabe", in.Target)
	}

	if err := PatchTarget(code, 5, 0); err == nil {
		t.Error("PatchTarget on ret succeeded, want error")
	}
	if err := PatchTarget(code, -1, 0); err == nil {
		t.Error("PatchTarget at -1 succeeded, want error")
	}
	if err := PatchTarget(code[:3], 0, 0); err == nil {
		t.Error("PatchTarget on truncated buffer succeeded, want error")
	}
}

// TestQuickEncodeDecodeRegImm property-tests the reg-imm family: any register
// and 16-bit immediate round-trips exactly, including sign extension.
func TestQuickEncodeDecodeRegImm(t *testing.T) {
	f := func(r uint8, imm int16, opSel uint8) bool {
		ops := []Op{OpAddI, OpSubI, OpAndI, OpOrI, OpXorI, OpCmpI}
		in := Inst{
			Op:  ops[int(opSel)%len(ops)],
			Rd:  Reg(r % NumRegs),
			Imm: int32(imm),
		}
		got, err := Decode(Encode(nil, in), 0)
		return err == nil && got == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodeDecodeTransfers property-tests that any 32-bit target
// round-trips through every direct-transfer encoding.
func TestQuickEncodeDecodeTransfers(t *testing.T) {
	f := func(target uint32, opSel uint8) bool {
		ops := []Op{OpJmp, OpJe, OpJne, OpJl, OpJge, OpJg, OpJle, OpJb, OpJae, OpCall}
		in := Inst{Op: ops[int(opSel)%len(ops)], Target: target}
		got, err := Decode(Encode(nil, in), 0)
		return err == nil && got == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodeFuzzNeverPanics feeds random byte windows to Decode; it must
// return errors, never panic, and any successful decode must report a length
// within the window it was offered... (length may exceed the window only via
// a bug, which the explicit check catches).
func TestDecodeFuzzNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	for i := 0; i < 20000; i++ {
		rng.Read(buf)
		n := 1 + rng.Intn(len(buf))
		in, err := Decode(buf[:n], uint32(i))
		if err != nil {
			continue
		}
		if in.Len() > n {
			t.Fatalf("decoded %s with length %d from %d-byte window", in.Op, in.Len(), n)
		}
		if !in.Op.Valid() {
			t.Fatalf("decode succeeded with invalid opcode %v", in.Op)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	code := Encode(nil, Inst{Op: OpLoad, Rd: 1, Rs: 2, Imm: 16})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(code, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	in := Inst{Op: OpMovRI, Rd: 3, Imm: 123}
	buf := make([]byte, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], in)
	}
}
