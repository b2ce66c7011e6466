// Package program defines the binary image container shared by the
// assembler, the ILR rewriter, the emulator, and the cycle simulator.
//
// An Image is the moral equivalent of a statically linked executable: named
// segments at fixed virtual addresses, an entry point, a symbol table, and —
// critically for ILR — a relocation table that records every 32-bit field
// holding a code address. Hiser et al.'s rewriter (and ours, in package ilr)
// relies on relocations to retarget direct control transfers and to patch
// jump tables and function-pointer tables stored in data.
package program

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Perm is a segment permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

// String renders the permissions in "rwx" form.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Conventional segment names.
const (
	SegText  = "text"
	SegData  = "data"
	SegStack = "stack"
)

// Segment is a contiguous range of initialized memory in the image.
type Segment struct {
	Name string
	Addr uint32
	Data []byte
	Perm Perm
}

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.Addr + uint32(len(s.Data)) }

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint32) bool { return addr >= s.Addr && addr < s.End() }

// Symbol names an address in the image.
type Symbol struct {
	Name string
	Addr uint32
	Size uint32
	Func bool // true for function entry points
}

// Reloc records one 32-bit little-endian field that holds a code address.
//
// InCode distinguishes the target field of a direct-transfer instruction
// (patched by retargeting the instruction) from a code pointer stored in a
// data word (a jump-table slot or function-pointer constant, patched in
// place). Both must be updated consistently when instruction addresses move.
type Reloc struct {
	Addr   uint32 // address of the 32-bit field itself
	InCode bool   // true: instruction target field; false: data word
}

// Image is a loadable program.
type Image struct {
	Name     string
	Entry    uint32
	Segments []Segment
	Symbols  []Symbol
	Relocs   []Reloc
}

// Seg returns the named segment, or nil if absent.
func (img *Image) Seg(name string) *Segment {
	for i := range img.Segments {
		if img.Segments[i].Name == name {
			return &img.Segments[i]
		}
	}
	return nil
}

// Text returns the executable segment. Every well-formed image has exactly
// one; Validate enforces this.
func (img *Image) Text() *Segment {
	for i := range img.Segments {
		if img.Segments[i].Perm&PermX != 0 {
			return &img.Segments[i]
		}
	}
	return nil
}

// SegAt returns the segment containing addr, or nil.
func (img *Image) SegAt(addr uint32) *Segment {
	for i := range img.Segments {
		if img.Segments[i].Contains(addr) {
			return &img.Segments[i]
		}
	}
	return nil
}

// ReadWord reads the 32-bit little-endian word at addr from the image's
// initialized segments.
func (img *Image) ReadWord(addr uint32) (uint32, error) {
	seg := img.SegAt(addr)
	if seg == nil || !seg.Contains(addr+3) {
		return 0, fmt.Errorf("program: word read at %#x outside image", addr)
	}
	return binary.LittleEndian.Uint32(seg.Data[addr-seg.Addr:]), nil
}

// WriteWord writes the 32-bit little-endian word at addr in the image's
// initialized segments. It is used by the rewriter to patch data relocations.
func (img *Image) WriteWord(addr, val uint32) error {
	seg := img.SegAt(addr)
	if seg == nil || !seg.Contains(addr+3) {
		return fmt.Errorf("program: word write at %#x outside image", addr)
	}
	binary.LittleEndian.PutUint32(seg.Data[addr-seg.Addr:], val)
	return nil
}

// SymbolAt returns the symbol whose range covers addr, preferring function
// symbols, or nil if none does.
func (img *Image) SymbolAt(addr uint32) *Symbol {
	var best *Symbol
	for i := range img.Symbols {
		s := &img.Symbols[i]
		if addr >= s.Addr && (s.Size == 0 && addr == s.Addr || addr < s.Addr+s.Size) {
			if best == nil || s.Func && !best.Func {
				best = s
			}
		}
	}
	return best
}

// Lookup returns the address of the named symbol.
func (img *Image) Lookup(name string) (uint32, bool) {
	for i := range img.Symbols {
		if img.Symbols[i].Name == name {
			return img.Symbols[i].Addr, true
		}
	}
	return 0, false
}

// Clone returns a deep copy of the image. The rewriter clones before
// mutating so callers keep the original layout.
func (img *Image) Clone() *Image {
	out := &Image{
		Name:     img.Name,
		Entry:    img.Entry,
		Segments: make([]Segment, len(img.Segments)),
		Symbols:  append([]Symbol(nil), img.Symbols...),
		Relocs:   append([]Reloc(nil), img.Relocs...),
	}
	for i, s := range img.Segments {
		out.Segments[i] = Segment{
			Name: s.Name,
			Addr: s.Addr,
			Data: append([]byte(nil), s.Data...),
			Perm: s.Perm,
		}
	}
	return out
}

// Validate checks structural invariants: exactly one executable segment,
// non-overlapping segments, entry inside the text segment, relocations and
// symbols inside some segment.
func (img *Image) Validate() error {
	var text int
	for i := range img.Segments {
		s := &img.Segments[i]
		if len(s.Data) == 0 {
			return fmt.Errorf("program: segment %q is empty", s.Name)
		}
		if s.End() < s.Addr {
			return fmt.Errorf("program: segment %q wraps the address space", s.Name)
		}
		if s.Perm&PermX != 0 {
			text++
		}
	}
	if text != 1 {
		return fmt.Errorf("program: image has %d executable segments, want 1", text)
	}
	segs := make([]*Segment, 0, len(img.Segments))
	for i := range img.Segments {
		segs = append(segs, &img.Segments[i])
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Addr < segs[j].Addr })
	for i := 1; i < len(segs); i++ {
		if segs[i].Addr < segs[i-1].End() {
			return fmt.Errorf("program: segments %q and %q overlap",
				segs[i-1].Name, segs[i].Name)
		}
	}
	if t := img.Text(); !t.Contains(img.Entry) {
		return fmt.Errorf("program: entry %#x outside text [%#x,%#x)",
			img.Entry, t.Addr, t.End())
	}
	for _, r := range img.Relocs {
		seg := img.SegAt(r.Addr)
		if seg == nil || !seg.Contains(r.Addr+3) {
			return fmt.Errorf("program: relocation at %#x outside image", r.Addr)
		}
		if r.InCode != (seg.Perm&PermX != 0) {
			return fmt.Errorf("program: relocation at %#x: InCode=%v but segment %q perm %v",
				r.Addr, r.InCode, seg.Name, seg.Perm)
		}
	}
	for _, s := range img.Symbols {
		if img.SegAt(s.Addr) == nil {
			return fmt.Errorf("program: symbol %q at %#x outside image", s.Name, s.Addr)
		}
	}
	return nil
}
