// Command vgiwcheck runs the repo's static-analysis suite
// (internal/analysis) over the module: the determinism-taint, lock-
// discipline, and goroutine-lifecycle passes, plus the hotpath, nilguard
// and ctxpoll source-shape checks. Exit status 1 when findings exist, 2 on
// usage or analysis errors.
//
// Usage:
//
//	vgiwcheck [-root dir] [-json] [-strict-suppressions] [-list] [packages...]
//
// With no package arguments the whole module under -root is analyzed.
// Package arguments are directories relative to the module root (e.g.
// internal/fleet); their module-internal dependencies are still loaded
// and analyzed (cross-package facts need them) but only the named
// packages are reported on.
//
// -json emits the machine-readable diagnostic array `make analyze`
// consumes. -strict-suppressions additionally audits //vgiw:allow
// comments and //vgiw:coarsepoll markers that no longer suppress
// anything. -list prints the pass catalog and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vgiw/internal/analysis"
)

const modPath = "vgiw"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("vgiwcheck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	root := fl.String("root", ".", "module root directory")
	asJSON := fl.Bool("json", false, "emit diagnostics as a JSON array")
	strict := fl.Bool("strict-suppressions", false, "audit unused //vgiw:allow and //vgiw:coarsepoll escapes")
	list := fl.Bool("list", false, "print the pass catalog and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	passes := analysis.DefaultPasses()
	if *list {
		for _, p := range passes {
			fmt.Fprintf(stdout, "%-10s %s\n", p.Name, p.Doc)
		}
		return 0
	}

	var prog *analysis.Program
	var err error
	if fl.NArg() == 0 {
		prog, err = analysis.Load(*root, modPath)
	} else {
		prog, err = analysis.LoadPackages(*root, modPath, fl.Args())
	}
	if err != nil {
		fmt.Fprintf(stderr, "vgiwcheck: %v\n", err)
		return 2
	}

	a := &analysis.Analyzer{Passes: passes, Strict: *strict}
	diags := a.Run(prog)

	if *asJSON {
		if err := analysis.RenderJSON(stdout, diags, *root); err != nil {
			fmt.Fprintf(stderr, "vgiwcheck: %v\n", err)
			return 2
		}
	} else if err := analysis.RenderHuman(stdout, diags, *root); err != nil {
		fmt.Fprintf(stderr, "vgiwcheck: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
