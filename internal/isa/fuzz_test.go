package isa

import (
	"bytes"
	"testing"
)

// FuzzISADecode: Decode never panics, whatever the bytes and the address;
// a rejection always carries a message; and every instruction it accepts
// fits its window, agrees with TryDecode, re-encodes to exactly the bytes
// it was decoded from, and decodes back to itself.
//
// Seeds: one encoding per opcode (sampleInstructions) plus the checked-in
// corpus under testdata/fuzz/FuzzISADecode (rejections and edge values).
func FuzzISADecode(f *testing.F) {
	for _, in := range sampleInstructions() {
		f.Add(Encode(nil, in), uint32(0x4000))
	}
	f.Fuzz(func(t *testing.T, buf []byte, addr uint32) {
		in, err := Decode(buf, addr)
		if _, ok := TryDecode(buf, addr); ok != (err == nil) {
			t.Fatalf("TryDecode accepts = %v, Decode error = %v", ok, err)
		}
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty decode error")
			}
			return
		}
		if in.Addr != addr || in.Len() > len(buf) {
			t.Fatalf("decoded %+v from a %d-byte window at %#x", in, len(buf), addr)
		}
		enc := Encode(nil, in)
		if !bytes.Equal(enc, buf[:in.Len()]) {
			t.Fatalf("%s re-encodes to % x, decoded from % x", in, enc, buf[:in.Len()])
		}
		back, err := Decode(enc, addr)
		if err != nil || back != in {
			t.Fatalf("Decode(Encode(%+v)) = %+v, %v", in, back, err)
		}
	})
}
