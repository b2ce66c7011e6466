package program

import (
	"strings"
	"testing"
)

// testImage builds a small, valid image for reuse across tests.
func testImage() *Image {
	return &Image{
		Name:  "t",
		Entry: 0x1004,
		Segments: []Segment{
			{Name: SegText, Addr: 0x1000, Data: make([]byte, 64), Perm: PermR | PermX},
			{Name: SegData, Addr: 0x2000, Data: make([]byte, 32), Perm: PermR | PermW},
		},
		Symbols: []Symbol{
			{Name: "main", Addr: 0x1004, Size: 16, Func: true},
			{Name: "table", Addr: 0x2000, Size: 8},
		},
		Relocs: []Reloc{
			{Addr: 0x1010, InCode: true},
			{Addr: 0x2004, InCode: false},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testImage().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Image)
		want string
	}{
		{"no text", func(im *Image) { im.Segments[0].Perm = PermR }, "executable segments"},
		{"two text", func(im *Image) { im.Segments[1].Perm = PermR | PermX }, "executable segments"},
		{"empty segment", func(im *Image) { im.Segments[1].Data = nil }, "empty"},
		{"overlap", func(im *Image) { im.Segments[1].Addr = 0x1020 }, "overlap"},
		{"entry outside text", func(im *Image) { im.Entry = 0x2000 }, "entry"},
		{"reloc outside", func(im *Image) { im.Relocs[0].Addr = 0x9000 }, "relocation"},
		{"reloc at segment edge", func(im *Image) { im.Relocs[0].Addr = 0x103e }, "relocation"},
		{"reloc kind mismatch", func(im *Image) { im.Relocs[0].InCode = false }, "InCode"},
		{"symbol outside", func(im *Image) { im.Symbols[0].Addr = 0x9000 }, "symbol"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			img := testImage()
			tt.mut(img)
			err := img.Validate()
			if err == nil {
				t.Fatal("Validate succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestSegmentQueries(t *testing.T) {
	img := testImage()
	if img.Seg(SegText) == nil || img.Seg(SegData) == nil {
		t.Fatal("Seg lookup failed")
	}
	if img.Seg("bss") != nil {
		t.Error("Seg(bss) != nil")
	}
	if got := img.Text(); got == nil || got.Name != SegText {
		t.Errorf("Text() = %v", got)
	}
	if s := img.SegAt(0x1000); s == nil || s.Name != SegText {
		t.Error("SegAt(text start) wrong")
	}
	if s := img.SegAt(0x103f); s == nil || s.Name != SegText {
		t.Error("SegAt(text last byte) wrong")
	}
	if s := img.SegAt(0x1040); s != nil {
		t.Error("SegAt(text end) should be nil")
	}
}

func TestReadWriteWord(t *testing.T) {
	img := testImage()
	if err := img.WriteWord(0x2004, 0xdeadbeef); err != nil {
		t.Fatalf("WriteWord: %v", err)
	}
	got, err := img.ReadWord(0x2004)
	if err != nil {
		t.Fatalf("ReadWord: %v", err)
	}
	if got != 0xdeadbeef {
		t.Errorf("ReadWord = %#x", got)
	}
	if _, err := img.ReadWord(0x201e); err == nil {
		t.Error("ReadWord straddling segment end succeeded")
	}
	if err := img.WriteWord(0x5000, 1); err == nil {
		t.Error("WriteWord outside image succeeded")
	}
}

func TestSymbolLookup(t *testing.T) {
	img := testImage()
	addr, ok := img.Lookup("main")
	if !ok || addr != 0x1004 {
		t.Errorf("Lookup(main) = %#x, %v", addr, ok)
	}
	if _, ok := img.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	if s := img.SymbolAt(0x100a); s == nil || s.Name != "main" {
		t.Errorf("SymbolAt(0x100a) = %v", s)
	}
	if s := img.SymbolAt(0x1020); s != nil {
		t.Errorf("SymbolAt(gap) = %v, want nil", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	img := testImage()
	cp := img.Clone()
	cp.Segments[0].Data[0] = 0xff
	cp.Relocs[0].Addr = 0x1014
	cp.Symbols[0].Name = "changed"
	if img.Segments[0].Data[0] == 0xff {
		t.Error("Clone shares segment data")
	}
	if img.Relocs[0].Addr == 0x1014 {
		t.Error("Clone shares relocs")
	}
	if img.Symbols[0].Name == "changed" {
		t.Error("Clone shares symbols")
	}
}

func TestPermString(t *testing.T) {
	if got := (PermR | PermX).String(); got != "r-x" {
		t.Errorf("PermR|PermX = %q", got)
	}
	if got := Perm(0).String(); got != "---" {
		t.Errorf("Perm(0) = %q", got)
	}
	if got := (PermR | PermW | PermX).String(); got != "rwx" {
		t.Errorf("rwx = %q", got)
	}
}
