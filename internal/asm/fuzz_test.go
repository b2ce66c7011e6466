// Fuzz target for the assembler round trip, in an external test package so
// the corpus can be seeded from internal/workloads (which imports asm).
package asm_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/workloads"
)

// FuzzAssembleListingRoundTrip checks the assembler/disassembler closure on
// arbitrary source text: whatever assembles must produce a listing that
// reassembles to byte-identical text. The ISA's encodings are fixed-width
// and canonical, so this is an equality property, not just semantic
// equivalence. The corpus is seeded with every generated workload program
// plus structured random programs — real, full-size inputs rather than
// hand-picked snippets.
func FuzzAssembleListingRoundTrip(f *testing.F) {
	elf := make(map[string]bool)
	for _, name := range workloads.ELFNames() {
		elf[name] = true
	}
	for _, name := range workloads.Names() {
		if elf[name] {
			continue // lifted binaries have no assembly source
		}
		src, err := workloads.Source(name, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for seed := uint32(1); seed <= 4; seed++ {
		_, src := workloads.RandomSource(seed)
		f.Add(src)
	}
	f.Add(".entry main\nmain:\n\tmovi r1, 0\n\tsys 0\n")
	f.Add(".text 0x2000\n.entry e\ne:\n\thalt\n.data\nbuf: .space 16\n")
	f.Add(".entry main\n\t.space 3\nmain:\n\tmovi r1, 0\n\t.align 16\nend:\n\tsys 0\n\t.space 4\n")
	// Oversized sections, which the assembler refuses before allocating.
	f.Add(".entry main\nmain:\n\thalt\n.data\nbuf: .space 0x7fffffffffffffff\n")
	f.Add(".entry main\nmain:\n\thalt\n.data\nbuf: .space 0x100000000\n")
	f.Add(".entry main\nmain:\n\thalt\n.data\n.word 1\n.align 0x100000000\n")

	f.Fuzz(func(t *testing.T, src string) {
		img, err := asm.Assemble("fuzz", src)
		if err != nil {
			return // rejecting bad source is the assembler's job, not a bug
		}
		text := img.Text()
		if text == nil || len(text.Data) == 0 {
			return
		}
		listing, err := asm.Listing(img)
		if err != nil {
			t.Fatalf("valid image fails to list: %v", err)
		}

		// Rebuild source from the listing: pin the text base, strip the
		// address column, and re-declare the entry point at the line whose
		// address matches the original entry. Zero padding (.space or
		// .align in text) shows in the listing only as a gap in its
		// address column; restore it as .space.
		insts, err := asm.Disassemble(img)
		if err != nil {
			t.Fatal(err)
		}
		length := make(map[uint32]uint32, len(insts))
		for _, in := range insts {
			length[in.Addr] = uint32(in.Len())
		}
		var b strings.Builder
		fmt.Fprintf(&b, ".text %#x\n.entry __fuzz_entry\n", text.Addr)
		sawEntry := false
		next := text.Addr
		var labels []string
		for _, line := range strings.Split(listing, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if strings.HasSuffix(line, ":") {
				labels = append(labels, line)
				continue
			}
			fields := strings.SplitN(line, "  ", 2)
			if len(fields) != 2 {
				continue
			}
			a, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 0, 32)
			if err != nil {
				t.Fatalf("unparseable listing address in %q: %v", line, err)
			}
			addr := uint32(a)
			if addr > next {
				fmt.Fprintf(&b, "\t.space %d\n", addr-next)
			}
			for _, l := range labels {
				b.WriteString(l + "\n")
			}
			labels = labels[:0]
			if addr == img.Entry {
				b.WriteString("__fuzz_entry:\n")
				sawEntry = true
			}
			b.WriteString("\t" + strings.TrimSpace(fields[1]) + "\n")
			next = addr + length[addr]
		}
		if end := text.End(); end > next {
			fmt.Fprintf(&b, "\t.space %d\n", end-next)
		}
		if !sawEntry {
			// Entry not at an instruction boundary of the listing (e.g. it
			// points into a literal): the reconstruction doesn't apply.
			return
		}
		img2, err := asm.Assemble("fuzz-rt", b.String())
		if err != nil {
			t.Fatalf("listing does not reassemble: %v\nsource:\n%s", err, b.String())
		}
		got := img2.Text()
		if got == nil {
			t.Fatal("round trip lost the text segment")
		}
		if got.Addr != text.Addr {
			t.Fatalf("text base moved: %#x -> %#x", text.Addr, got.Addr)
		}
		if string(got.Data) != string(text.Data) {
			i := 0
			for i < len(got.Data) && i < len(text.Data) && got.Data[i] == text.Data[i] {
				i++
			}
			t.Fatalf("text bytes diverge at offset %#x (lens %d vs %d)",
				i, len(text.Data), len(got.Data))
		}
	})
}
