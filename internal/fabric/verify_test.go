package fabric

import (
	"strings"
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/kir"
	"vgiw/internal/verify"
)

func placedSmall(t *testing.T) (*Grid, *Placement, int) {
	t.Helper()
	b := kir.NewBuilder("smol")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	base := b.Param(0)
	tid := b.Tid()
	addr := b.Add(base, tid)
	v := b.Load(addr, 0)
	x := b.FMul(v, v)
	b.Store(addr, 0, x)
	b.Ret()
	ck, err := compile.Compile(b.MustBuild(), compile.Checked())
	if err != nil {
		t.Fatal(err)
	}
	g := defaultGrid(t)
	p, err := PlaceMax(g, ck.DFGs[0])
	if err != nil {
		t.Fatal(err)
	}
	return g, p, ck.LV.NumIDs
}

func wantDiag(t *testing.T, ds []verify.Diagnostic, sub string) {
	t.Helper()
	for _, d := range ds {
		if strings.Contains(d.Msg, sub) {
			return
		}
	}
	t.Fatalf("no diagnostic mentions %q in: %v", sub, verify.Join(ds))
}

func TestVerifyPlacement(t *testing.T) {
	t.Run("clean placement passes", func(t *testing.T) {
		g, p, numLVs := placedSmall(t)
		if err := VerifyPlaced("place", g, p, numLVs); err != nil {
			t.Fatalf("clean placement flagged: %v", err)
		}
	})

	t.Run("class mismatch", func(t *testing.T) {
		g, p, _ := placedSmall(t)
		// Move an ALU-class node onto an LDST unit.
		graph := p.Graph
		var node int = -1
		for _, n := range graph.Nodes {
			if n.Class() == kir.ClassALU {
				node = n.ID
				break
			}
		}
		if node < 0 {
			t.Fatal("no ALU node")
		}
		p.UnitOf[0][node] = g.byClass[kir.ClassLDST][0]
		wantDiag(t, VerifyPlacement("place", g, p), "placed on")
	})

	t.Run("double booking", func(t *testing.T) {
		g, p, _ := placedSmall(t)
		p.UnitOf[0][1] = p.UnitOf[0][0]
		wantDiag(t, VerifyPlacement("place", g, p), "already hosts")
	})

	t.Run("unit out of range", func(t *testing.T) {
		g, p, _ := placedSmall(t)
		p.UnitOf[0][0] = g.NumUnits() + 5
		wantDiag(t, VerifyPlacement("place", g, p), "grid has")
	})

	t.Run("stale edge latency", func(t *testing.T) {
		g, p, _ := placedSmall(t)
		for n := range p.EdgeLat[0] {
			if len(p.EdgeLat[0][n]) > 0 {
				p.EdgeLat[0][n][0] += 7
				wantDiag(t, VerifyPlacement("place", g, p), "interconnect distance")
				return
			}
		}
		t.Fatal("no data edges")
	})

	t.Run("replica overclaim", func(t *testing.T) {
		g, p, _ := placedSmall(t)
		p.Replicas = MaxReplicasFor(g, p.Graph) + 1
		ds := VerifyPlacement("place", g, p)
		wantDiag(t, ds, "fit the grid")
	})
}
