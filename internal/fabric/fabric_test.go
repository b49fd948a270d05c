package fabric

import (
	"testing"
	"testing/quick"

	"vgiw/internal/compile"
	"vgiw/internal/kir"
)

func defaultGrid(t testing.TB) *Grid {
	t.Helper()
	g, err := NewGrid(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDefaultGridMatchesTable1(t *testing.T) {
	g := defaultGrid(t)
	if g.NumUnits() != 108 {
		t.Fatalf("units = %d, want 108", g.NumUnits())
	}
	want := map[kir.UnitClass]int{
		kir.ClassALU: 32, kir.ClassSCU: 12, kir.ClassLDST: 16,
		kir.ClassLVU: 16, kir.ClassSJU: 16, kir.ClassCVU: 16,
	}
	for cl, n := range want {
		if got := len(g.byClass[cl]); got != n {
			t.Errorf("%v units = %d, want %d", cl, got, n)
		}
	}
	// Unique positions within bounds.
	seen := make(map[[2]int]bool)
	for _, u := range g.Units {
		if u.X < 0 || u.X >= 12 || u.Y < 0 || u.Y >= 9 {
			t.Fatalf("unit %d at (%d,%d) out of bounds", u.ID, u.X, u.Y)
		}
		key := [2]int{u.X, u.Y}
		if seen[key] {
			t.Fatalf("two units share cell (%d,%d)", u.X, u.Y)
		}
		seen[key] = true
	}
	// Memory units sit on the perimeter.
	for _, cl := range []kir.UnitClass{kir.ClassLDST, kir.ClassLVU} {
		for _, id := range g.byClass[cl] {
			u := g.Units[id]
			if u.X != 0 && u.Y != 0 && u.X != 11 && u.Y != 8 {
				t.Errorf("%v unit %d at (%d,%d) not on perimeter", cl, id, u.X, u.Y)
			}
		}
	}
}

func TestGridValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumALU++ // mix no longer sums to the grid size
	if _, err := NewGrid(cfg); err == nil {
		t.Error("want error for inconsistent unit mix")
	}
	cfg = DefaultConfig()
	cfg.Cols, cfg.Rows = 2, 2
	if _, err := NewGrid(cfg); err == nil {
		t.Error("want error for tiny grid")
	}
}

func TestHopsProperties(t *testing.T) {
	g := defaultGrid(t)
	for a := 0; a < g.NumUnits(); a += 7 {
		for b := 0; b < g.NumUnits(); b += 5 {
			h := g.Hops(a, b)
			if h < 1 {
				t.Fatalf("Hops(%d,%d) = %d < 1", a, b, h)
			}
			if h != g.Hops(b, a) {
				t.Fatalf("Hops not symmetric for %d,%d", a, b)
			}
		}
	}
	// Distance grows with separation: opposite corners are farther than
	// neighbors.
	var corner1, corner2, mid int
	for _, u := range g.Units {
		switch {
		case u.X == 0 && u.Y == 0:
			corner1 = u.ID
		case u.X == 11 && u.Y == 8:
			corner2 = u.ID
		case u.X == 1 && u.Y == 0:
			mid = u.ID
		}
	}
	if g.Hops(corner1, corner2) <= g.Hops(corner1, mid) {
		t.Errorf("corner-to-corner (%d) should exceed neighbor distance (%d)",
			g.Hops(corner1, corner2), g.Hops(corner1, mid))
	}
}

// smallDFG compiles a compute-heavy one-block kernel.
func smallDFG(t testing.TB) *compile.BlockDFG {
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
	y := b.FAdd(x, v)
	b.Store(addr, 0, y)
	b.Ret()
	ck, err := compile.Compile(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return ck.DFGs[0]
}

func TestMaxReplicasAndPlacement(t *testing.T) {
	g := defaultGrid(t)
	graph := smallDFG(t)
	fit := MaxReplicasFor(g, graph)
	if fit < 2 {
		t.Fatalf("small graph should fit at least twice, got %d", fit)
	}
	p, err := PlaceMax(g, graph)
	if err != nil {
		t.Fatal(err)
	}
	if p.Replicas != fit {
		t.Errorf("placed %d replicas, want %d", p.Replicas, fit)
	}
	// No unit is used twice across all replicas.
	used := make(map[int]bool)
	for r := 0; r < p.Replicas; r++ {
		for n, u := range p.UnitOf[r] {
			if used[u] {
				t.Fatalf("unit %d assigned twice (replica %d node %d)", u, r, n)
			}
			used[u] = true
			if g.Units[u].Class != graph.Nodes[n].Class() {
				t.Fatalf("node %d (%v) on %v unit", n, graph.Nodes[n].Class(), g.Units[u].Class)
			}
		}
	}
	// Edge latencies positive and match edge counts.
	for r := 0; r < p.Replicas; r++ {
		for _, n := range graph.Nodes {
			if len(p.EdgeLat[r][n.ID]) != len(n.In) {
				t.Fatalf("edge latency arity mismatch node %d", n.ID)
			}
			for _, l := range p.EdgeLat[r][n.ID] {
				if l < 1 {
					t.Fatalf("edge latency %d < 1", l)
				}
			}
		}
	}
	if p.AvgHops < 1 {
		t.Errorf("avg hops %f < 1", p.AvgHops)
	}
}

func TestPlaceRejectsOversubscription(t *testing.T) {
	g := defaultGrid(t)
	graph := smallDFG(t)
	if _, err := Place(g, graph, g.Config().MaxReplicas*100); err == nil {
		t.Error("want error for too many replicas")
	}
}

func TestPlacementLocality(t *testing.T) {
	// The greedy placer should do much better than the grid diameter on
	// average: producers and consumers land near each other.
	g := defaultGrid(t)
	p, err := PlaceMax(g, smallDFG(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.AvgHops > 3.5 {
		t.Errorf("avg hops %.2f too high; placement has no locality", p.AvgHops)
	}
}

func TestPlaceSingleReplicaOfLargeGraph(t *testing.T) {
	// A graph with exactly 32 ALU nodes fits once but not twice.
	b := kir.NewBuilder("wide")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	v := b.Param(0)
	acc := b.Const(0) // ALU node 1 (const)
	for i := 0; i < 30; i++ {
		acc = b.Add(acc, v)
	}
	b.Store(v, 0, acc)
	b.Ret()
	ck, err := compile.Compile(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	graph := ck.DFGs[0]
	alus := graph.ClassCounts()[kir.ClassALU]
	if alus != 32 {
		t.Fatalf("test graph has %d ALU nodes, want 32 (param+const+30 adds)", alus)
	}
	g := defaultGrid(t)
	if fit := MaxReplicasFor(g, graph); fit != 1 {
		t.Errorf("fit = %d, want exactly 1", fit)
	}
}

// Property: hop latency is a metric-like function on the grid (symmetric,
// positive, respects a triangle-style bound within the approximation).
func TestHopsQuickProperties(t *testing.T) {
	g := defaultGrid(t)
	n := g.NumUnits()
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		hxy, hyz, hxz := g.Hops(x, y), g.Hops(y, z), g.Hops(x, z)
		if hxy < 1 || hxy != g.Hops(y, x) {
			return false
		}
		// The folded-hypercube approximation covers up to 2 cells/hop, so
		// a relaxed triangle inequality holds with one extra hop of slack.
		return hxz <= hxy+hyz+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Placement determinism: two placements of the same graph are identical.
func TestPlacementDeterministic(t *testing.T) {
	g := defaultGrid(t)
	graph := smallDFG(t)
	p1, err := PlaceMax(g, graph)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlaceMax(g, graph)
	if err != nil {
		t.Fatal(err)
	}
	for r := range p1.UnitOf {
		for n := range p1.UnitOf[r] {
			if p1.UnitOf[r][n] != p2.UnitOf[r][n] {
				t.Fatalf("placement differs at replica %d node %d", r, n)
			}
		}
	}
}
