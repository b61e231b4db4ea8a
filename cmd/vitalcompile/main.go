// Command vitalcompile runs a design through the offline ViTAL compilation
// flow (Fig. 5) and reports the result: virtual-block count, per-stage
// compile times, timing closure, and the generated latency-insensitive
// interface. Designs come from a JSON file (see internal/hls JSON docs) or
// from the built-in Table 2 benchmark suite.
//
// Usage:
//
//	vitalcompile -design mydesign.json
//	vitalcompile -bench alexnet-M -netlist out.nl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vital/internal/core"
	"vital/internal/hls"
	"vital/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatalf("vitalcompile: %v", err)
	}
}

// run compiles the design the arguments name and writes the report to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vitalcompile", flag.ContinueOnError)
	designPath := fs.String("design", "", "JSON design file to compile")
	bench := fs.String("bench", "", "built-in benchmark design (<name>-<S|M|L>)")
	netlistOut := fs.String("netlist", "", "write the synthesized netlist (text format) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var design *hls.Design
	switch {
	case *designPath != "" && *bench != "":
		return errors.New("-design and -bench are mutually exclusive")
	case *designPath != "":
		f, err := os.Open(*designPath)
		if err != nil {
			return err
		}
		design, err = hls.LoadDesignJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	case *bench != "":
		spec, err := workload.ParseSpec(*bench)
		if err != nil {
			return err
		}
		design = workload.BuildDesign(spec)
	default:
		return errors.New("need -design <file.json> or -bench <name-V>")
	}

	stack := core.NewStack(nil)
	defer stack.Controller.Close()
	app, err := stack.Compile(design)
	if err != nil {
		return err
	}
	// A fresh stack has an empty cache, so this compile ran the tools and
	// carries their outputs.
	tools := app.Intermediates
	st := app.Times
	fmt.Fprintf(stdout, "design:          %s\n", app.Name)
	fmt.Fprintf(stdout, "resources:       %s\n", tools.Netlist.Resources())
	fmt.Fprintf(stdout, "virtual blocks:  %d\n", app.Blocks())
	fmt.Fprintf(stdout, "worst Fmax:      %.0f MHz\n", app.FminMHz)
	fmt.Fprintf(stdout, "LI channels:     %d (cut %d bits total)\n", len(app.Channels), tools.Partition.CutWidth)
	fmt.Fprintf(stdout, "compile stages:  synthesis %v | partition %v | interface %v | local P&R %v | relocation %v | global P&R %v\n",
		st.Synthesis.Round(1e6), st.Partition.Round(1e6), st.InterfaceGen.Round(1e6),
		st.LocalPNR.Round(1e6), st.Relocation.Round(1e6), st.GlobalPNR.Round(1e6))
	fmt.Fprintf(stdout, "P&R share:       %.1f%%   custom tools: %.1f%%\n", st.PNRFraction()*100, st.CustomToolFraction()*100)
	for b, br := range tools.BlockResults {
		fmt.Fprintf(stdout, "  vb%-2d %s  wirelength %d  congestion %.2f  Fmax %.0f MHz\n",
			b, tools.Partition.Usage[b], br.Routing.WirelengthUnits, br.Routing.MaxUtilization, br.Timing.FmaxMHz)
	}

	if *netlistOut != "" {
		f, err := os.Create(*netlistOut)
		if err != nil {
			return err
		}
		if _, err := tools.Netlist.WriteTo(f); err != nil {
			f.Close()
			return fmt.Errorf("writing netlist: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "netlist written: %s\n", *netlistOut)
	}
	return nil
}
