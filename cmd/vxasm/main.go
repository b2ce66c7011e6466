// Command vxasm prints the disassembly listing of a program file or a
// built-in workload, or a built-in workload's VX source.
//
// Usage:
//
//	vxasm app.s                     listing of assembled VX source
//	vxasm ./prog.elf                listing of a lifted RV64 ELF binary
//	vxasm -workload xalan           listing of a built-in workload
//	vxasm -workload xalan -src      source of a built-in workload
//
// A program file is read by workloads.Load: an RV64 ELF binary is lifted,
// anything else is assembled as VX source.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vcfr/internal/asm"
	"vcfr/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vxasm:", err)
		os.Exit(1)
	}
}

// run executes one command line (args without the program name), writing
// the listing or source to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vxasm", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "a built-in workload instead of a program file")
		scale    = fs.Int("scale", 1, "workload scale (with -workload)")
		srcOnly  = fs.Bool("src", false, "with -workload: print the generated source instead of the listing")
	)
	fs.Parse(args)

	var (
		w   workloads.Workload
		err error
	)
	switch {
	case *workload != "" && fs.NArg() == 0:
		if *srcOnly {
			src, err := workloads.Source(*workload, *scale)
			if err != nil {
				return err
			}
			_, err = io.WriteString(stdout, src)
			return err
		}
		w, err = workloads.ByName(*workload, *scale)
	case *workload == "" && fs.NArg() == 1 && !*srcOnly:
		w, err = workloads.Load(fs.Arg(0))
	default:
		return fmt.Errorf("need -workload or one program file; see -h")
	}
	if err != nil {
		return err
	}
	lst, err := asm.Listing(w.Img)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, lst)
	return err
}
