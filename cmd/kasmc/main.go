// kasmc is the kernel-assembly compiler driver: it parses a .kasm file and
// dumps what the VGIW compiler produces — the scheduled CFG, the live-value
// allocation, and each basic block's dataflow graph with its fabric
// placement and replication factor.
//
// Usage:
//
//	kasmc kernel.kasm            # compile and summarize
//	kasmc -dfg kernel.kasm       # also dump every block's dataflow graph
//	kasmc -print kernel.kasm     # pretty-print the parsed kernel and exit
//	kasmc -verify kernel.kasm    # run the IR verifier after every pass
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vgiw/internal/core"
	"vgiw/internal/kasm"
	"vgiw/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver, separated from main so the golden tests can
// exercise flags, output, and exit codes in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kasmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dumpDFG   = fs.Bool("dfg", false, "dump each block's dataflow graph")
		printOnly = fs.Bool("print", false, "pretty-print the parsed kernel and exit")
		doVerify  = fs.Bool("verify", false, "run the IR verifier on the input and after every compiler pass")
		showVer   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String())
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: kasmc [-dfg] [-print] <file.kasm>")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, "%v", err)
	}
	k, err := kasm.Parse(string(src))
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if *printOnly {
		fmt.Fprint(stdout, kasm.Print(k))
		return 0
	}

	// The VGIW machine compiles and places exactly as a simulation would;
	// Checked adds the verifier after every pass and after placement.
	cfg := core.DefaultConfig()
	cfg.Checked = *doVerify
	m, err := core.NewMachine(cfg)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	ck, err := m.Compile(k)
	if err != nil {
		// Compile errors arrive already prefixed "compile: <pass>: ...".
		return fail(stderr, "%v", err)
	}
	prep, err := m.Prepare(ck)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	grid := m.Grid()

	fmt.Fprintf(stdout, "kernel %s: %d blocks, %d instructions, %d registers, %d live values\n",
		k.Name, len(k.Blocks), k.NumInstrs(), k.NumRegs, ck.LV.NumIDs)
	for bi, g := range ck.DFGs {
		blk := k.Blocks[bi]
		replicas, p := prep.Replicas[bi], prep.Placements[bi]
		barrier := ""
		if blk.Barrier {
			barrier = " (barrier)"
		}
		fmt.Fprintf(stdout, "\n@%d %s%s: %d nodes %v\n", bi, blk.Label, barrier, len(g.Nodes), g.ClassCounts())
		fmt.Fprintf(stdout, "  replication: %dx, critical path %d nodes, avg hop latency %.2f cycles\n",
			replicas, g.CriticalPathLen(), p.AvgHops)
		fmt.Fprintf(stdout, "  LVC loads: %v, stores: %v\n", ck.LV.Loads[bi], ck.LV.Stores[bi])
		fmt.Fprintf(stdout, "  terminator: %s\n", blk.Term.String())
		if *dumpDFG {
			for _, n := range g.Nodes {
				unit := grid.Units[p.UnitOf[0][n.ID]]
				fmt.Fprintf(stdout, "    node %3d %-8v %-7v @(%2d,%2d) in=%v ctl=%v\n",
					n.ID, n.Kind, n.Instr.Op, unit.X, unit.Y, n.In, n.CtlIn)
			}
		}
	}
	return 0
}

func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "kasmc: "+format+"\n", args...)
	return 1
}
