package harness

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"vcfr/internal/cpu"
	"vcfr/internal/program"
	"vcfr/internal/trace"
)

// TraceKey and its hashes bind a captured functional trace to the app it
// came from. Harness cells never capture (runMode always executes); the key
// serves cmd/vxtrace's .vxt files.

// TraceKey derives the trace-cache key for one run: the executed image's
// content hash and the layout seed identify the (workload, layout) pair; the
// mode and instruction cap pin the functional stream; Aux folds in the
// remaining stream-shaping inputs (rewriter options, program input) so two
// layouts that happen to share image bytes and seed still key apart.
func TraceKey(app *App, mode cpu.Mode, maxInsts uint64) trace.Key {
	img, _, _, _ := app.artifacts(mode)
	return trace.Key{
		ImageHash:  imageHash(img),
		LayoutSeed: app.R.Opts.Seed,
		Mode:       mode,
		MaxInsts:   maxInsts,
		Aux:        appAux(app),
	}
}

// imageHash is an FNV-1a content hash over the image's identity, entry
// point, and every segment's placement and bytes.
func imageHash(img *program.Image) uint64 {
	if img == nil {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	hstr := func(s string) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	h32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		h.Write(b[:4])
	}
	hstr(img.Name)
	h32(img.Entry)
	for _, seg := range img.Segments {
		hstr(seg.Name)
		h32(seg.Addr)
		h32(uint32(seg.Perm))
		binary.LittleEndian.PutUint64(b[:], uint64(len(seg.Data)))
		h.Write(b[:])
		h.Write(seg.Data)
	}
	return h.Sum64()
}

// appAux hashes the remaining inputs that shape the functional stream: the
// full rewriter options and the program input served to SysGetChar.
func appAux(app *App) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v|", app.R.Opts)
	h.Write(app.W.Input)
	return h.Sum64()
}
