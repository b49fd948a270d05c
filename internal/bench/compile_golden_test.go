package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/core"
	"vgiw/internal/fabric"
	"vgiw/internal/kernels"
	"vgiw/internal/sgmf"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/compile_golden.txt from the current compile and place products")

// goldenScales are the workload scales TestCompileGolden pins. The two nw
// kernels' products differ between them; every other kernel's are the same
// at all three.
var goldenScales = []int{1, 2, 4}

// TestCompileGolden pins every compile and place product of the three
// machines: for each registry kernel at scales 1, 2 and 4, with the verifiers
// off and on, one SHA-256 over a text dump of the VGIW fitted compile and
// placement, the SIMT compile and, where the kernel maps, the SGMF graph and
// placement must match testdata/compile_golden.txt. Host-side rewrites of
// the compiler or the placer must leave all of it unchanged; a deliberate
// change regenerates the file with
// `go test ./internal/bench -run TestCompileGolden -update-golden`.
func TestCompileGolden(t *testing.T) {
	var got strings.Builder
	for _, scale := range goldenScales {
		for _, spec := range kernels.All() {
			w, err := kernels.NewWorkload(spec, scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, checked := range []bool{false, true} {
				h := sha256.New()
				if err := dumpCompiled(h, spec, w, checked); err != nil {
					t.Fatalf("%s scale %d checked=%v: %v", spec.Name, scale, checked, err)
				}
				fmt.Fprintf(&got, "%s scale=%d checked=%v sha256=%s\n",
					spec.Name, scale, checked, hex.EncodeToString(h.Sum(nil)))
			}
		}
	}

	golden := filepath.Join("testdata", "compile_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/bench -run TestCompileGolden -update-golden` to create it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d changed:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// dumpCompiled writes one kernel's compile and place products on all three
// machines to w, as the harness builds them.
func dumpCompiled(w io.Writer, spec kernels.Spec, wl *kernels.Workload, checked bool) error {
	vcfg := core.DefaultConfig()
	vcfg.Checked = checked
	mv, err := core.NewMachine(vcfg)
	if err != nil {
		return err
	}
	ck, err := mv.Compile(wl.Kernel())
	if err != nil {
		return err
	}
	prep, err := mv.Prepare(ck)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "vgiw")
	dumpKernel(w, ck)
	for bi, g := range ck.DFGs {
		fmt.Fprintf(w, "replicas %d\n", prep.Replicas[bi])
		dumpGraph(w, g)
		dumpPlacement(w, prep.Placements[bi])
	}

	var opts []compile.Option
	if checked {
		opts = append(opts, compile.Checked())
	}
	sck, err := compile.Compile(wl.Kernel(), opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "simt")
	dumpKernel(w, sck)
	for _, g := range sck.DFGs {
		dumpGraph(w, g)
	}

	if !spec.SGMF {
		return nil
	}
	scfg := sgmf.DefaultConfig()
	scfg.Checked = checked
	ms, err := sgmf.NewMachine(scfg)
	if err != nil {
		return err
	}
	k := wl.Kernel()
	g, err := ms.Translate(k)
	if err != nil {
		return err
	}
	p, err := ms.PlaceGraph(k.Name, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sgmf regs=%d\n%s", k.NumRegs, k.String())
	dumpGraph(w, g)
	dumpPlacement(w, p)
	return nil
}

// dumpKernel writes the compiled kernel's text, its live-value allocation
// (with the ID of every loaded or stored register) and its immediate
// post-dominators.
func dumpKernel(w io.Writer, ck *compile.CompiledKernel) {
	k, lv := ck.Kernel, ck.LV
	fmt.Fprintf(w, "regs=%d\n%s", k.NumRegs, k.String())
	fmt.Fprintf(w, "lv ids=%d\n", lv.NumIDs)
	for bi := range k.Blocks {
		fmt.Fprintf(w, "@%d loads", bi)
		for _, r := range lv.Loads[bi] {
			fmt.Fprintf(w, " r%d:%d", r, lv.IDOf[r])
		}
		fmt.Fprint(w, " stores")
		for _, r := range lv.Stores[bi] {
			fmt.Fprintf(w, " r%d:%d", r, lv.IDOf[r])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "ipdom %v\n", ck.IPDom)
}

// dumpGraph writes every node of a dataflow graph with all of its fields.
func dumpGraph(w io.Writer, g *compile.BlockDFG) {
	fmt.Fprintf(w, "graph block=%d nodes=%d init=%d term=%d\n", g.BlockID, len(g.Nodes), g.Init, g.Term)
	for _, n := range g.Nodes {
		in := n.Instr
		fmt.Fprintf(w, "  %d %v op=%v dst=%d src=%v imm=%d pos=%v reg=%d lv=%d in=%v ctl=%v out=%v pred=%v/%d\n",
			n.ID, n.Kind, in.Op, in.Dst, in.Src, in.Imm, in.Pos, n.Reg, n.LV, n.In, n.CtlIn, n.Out, n.HasPred, n.Pred)
	}
}

// dumpPlacement writes every table of a placement.
func dumpPlacement(w io.Writer, p *fabric.Placement) {
	fmt.Fprintf(w, "placement replicas=%d avghops=%v\n", p.Replicas, p.AvgHops)
	for r := 0; r < p.Replicas; r++ {
		fmt.Fprintf(w, "  r%d units=%v edge=%v ctl=%v hops=%v\n", r, p.UnitOf[r], p.EdgeLat[r], p.CtlLat[r], p.HopSum[r])
	}
}
