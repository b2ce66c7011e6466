// Command vxasm assembles VX assembly into a program image, or disassembles
// an image back to a listing.
//
// Usage:
//
//	vxasm -o app.img app.s          assemble
//	vxasm -d app.img                disassemble (listing to stdout)
//	vxasm -workload xalan -o x.img  emit a built-in workload's image
//	vxasm -workload xalan -src      dump a built-in workload's source
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vcfr/internal/asm"
	"vcfr/internal/program"
	"vcfr/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vxasm:", err)
		os.Exit(1)
	}
}

// run executes one command line (args without the program name), writing
// listings, source and reports to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vxasm", flag.ExitOnError)
	var (
		out      = fs.String("o", "", "output image path")
		disasm   = fs.Bool("d", false, "disassemble an image instead of assembling")
		workload = fs.String("workload", "", "emit a built-in workload instead of reading a source file")
		scale    = fs.Int("scale", 1, "workload scale (with -workload)")
		srcOnly  = fs.Bool("src", false, "with -workload: print the generated source and exit")
	)
	fs.Parse(args)

	if *workload != "" {
		if *srcOnly {
			src, err := workloads.Source(*workload, *scale)
			if err != nil {
				return err
			}
			_, err = io.WriteString(stdout, src)
			return err
		}
		w, err := workloads.ByName(*workload, *scale)
		if err != nil {
			return err
		}
		if *out == "" {
			*out = w.Name + ".img"
		}
		return writeImage(w.Img, *out)
	}

	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one input file (or -workload); see -h")
	}
	path := fs.Arg(0)

	if *disasm {
		img, err := readImage(path)
		if err != nil {
			return err
		}
		lst, err := asm.Listing(img)
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, lst)
		return err
	}

	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	img, err := asm.Assemble(name, string(src))
	if err != nil {
		return err
	}
	if *out == "" {
		*out = name + ".img"
	}
	if err := writeImage(img, *out); err != nil {
		return err
	}
	text := img.Text()
	fmt.Fprintf(stdout, "%s: %d bytes of text at %#x, entry %#x, %d relocs\n",
		*out, len(text.Data), text.Addr, img.Entry, len(img.Relocs))
	return nil
}

func writeImage(img *program.Image, path string) error {
	data, err := img.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readImage(path string) (*program.Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return program.Unmarshal(data)
}
