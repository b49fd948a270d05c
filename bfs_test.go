package vgiw_test

import (
	"testing"

	"vgiw"
)

// bfsGraph is a seeded random graph in CSR form.
type bfsGraph struct {
	nodes                  int
	starting, count, edges []uint32
}

func makeBFSGraph(nodes, avgDeg int) *bfsGraph {
	g := &bfsGraph{nodes: nodes, starting: make([]uint32, nodes), count: make([]uint32, nodes)}
	seed := uint32(0x2545F491)
	next := func(n int) uint32 {
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		return seed % uint32(n)
	}
	total := uint32(0)
	for i := range g.count {
		g.count[i] = 1 + next(2*avgDeg-1)
		g.starting[i] = total
		total += g.count[i]
	}
	g.edges = make([]uint32, total)
	for i := range g.edges {
		g.edges[i] = next(nodes)
	}
	return g
}

// bfsLayout holds the word addresses of the BFS arrays in global memory.
type bfsLayout struct {
	start, count, edge, mask, upd, visit, cost, over, words int
}

func (g *bfsGraph) layout() bfsLayout {
	var l bfsLayout
	l.count = l.start + g.nodes
	l.edge = l.count + g.nodes
	l.mask = l.edge + len(g.edges)
	l.upd = l.mask + g.nodes
	l.visit = l.upd + g.nodes
	l.cost = l.visit + g.nodes
	l.over = l.cost + g.nodes
	l.words = l.over + 1
	return l
}

// image is the initial memory: node 0 is the frontier and is visited, and
// every other node's cost is -1.
func (g *bfsGraph) image(l bfsLayout) []uint32 {
	mem := make([]uint32, l.words)
	copy(mem[l.start:], g.starting)
	copy(mem[l.count:], g.count)
	copy(mem[l.edge:], g.edges)
	for i := 0; i < g.nodes; i++ {
		mem[l.cost+i] = ^uint32(0)
	}
	mem[l.mask] = 1
	mem[l.visit] = 1
	mem[l.cost] = 0
	return mem
}

// bfsExpand is the frontier-expansion kernel (Rodinia BFS Kernel).
func bfsExpand(l bfsLayout) *vgiw.Kernel {
	b := vgiw.NewKernelBuilder("bfs.kernel1")
	entry := b.NewBlock("entry")
	setup := b.NewBlock("setup")
	loopHead := b.NewBlock("loop_head")
	update := b.NewBlock("update")
	latch := b.NewBlock("latch")
	exit := b.NewBlock("exit")
	addr := func(base int, idx vgiw.Reg) vgiw.Reg { return b.Add(b.Const(int32(base)), idx) }

	b.SetBlock(entry)
	b.Branch(b.Load(addr(l.mask, b.Tid()), 0), setup, exit)

	b.SetBlock(setup)
	b.Store(addr(l.mask, b.Tid()), 0, b.Const(0))
	myCost := b.Load(addr(l.cost, b.Tid()), 0)
	e := b.Mov(b.Load(addr(l.start, b.Tid()), 0))
	end := b.Add(e, b.Load(addr(l.count, b.Tid()), 0))
	b.Branch(b.SetLT(e, end), loopHead, exit)

	b.SetBlock(loopHead)
	id := b.Load(addr(l.edge, e), 0)
	b.Branch(b.SetEQ(b.Load(addr(l.visit, id), 0), b.Const(0)), update, latch)

	b.SetBlock(update)
	b.Store(addr(l.cost, id), 0, b.AddI(myCost, 1))
	b.Store(addr(l.upd, id), 0, b.Const(1))
	b.Jump(latch)

	b.SetBlock(latch)
	e1 := b.AddI(e, 1)
	b.MovTo(e, e1)
	b.Branch(b.SetLT(e1, end), loopHead, exit)

	b.SetBlock(exit)
	b.Ret()
	return b.MustBuild()
}

// bfsPromote turns the updating mask into the next frontier and raises the
// host-visible "not done" flag.
func bfsPromote(l bfsLayout) *vgiw.Kernel {
	b := vgiw.NewKernelBuilder("bfs.kernel2")
	entry := b.NewBlock("entry")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	addr := func(base int, idx vgiw.Reg) vgiw.Reg { return b.Add(b.Const(int32(base)), idx) }

	b.SetBlock(entry)
	b.Branch(b.Load(addr(l.upd, b.Tid()), 0), body, exit)

	b.SetBlock(body)
	b.Store(addr(l.mask, b.Tid()), 0, b.Const(1))
	b.Store(addr(l.visit, b.Tid()), 0, b.Const(1))
	b.Store(b.Const(int32(l.over)), 0, b.Const(1))
	b.Store(addr(l.upd, b.Tid()), 0, b.Const(0))
	b.Jump(exit)

	b.SetBlock(exit)
	b.Ret()
	return b.MustBuild()
}

// TestMultiLaunchBFS runs a complete breadth-first search on the VGIW
// machine and on the SIMT baseline: a host loop launches the two Rodinia
// BFS kernels level by level until no node is updated. Both machines must
// reproduce a host BFS's distances for every node. With -v it logs each
// machine's levels and total simulated cycles.
func TestMultiLaunchBFS(t *testing.T) {
	const nodes = 4096
	g := makeBFSGraph(nodes, 4)
	l := g.layout()
	launch := vgiw.Launch1D(nodes/128, 128)
	machines := []struct {
		name string
		run  func(k *vgiw.Kernel, mem []uint32) (cycles int64, err error)
	}{
		{"VGIW", func(k *vgiw.Kernel, mem []uint32) (int64, error) {
			res, err := vgiw.RunVGIW(k, launch, mem, nil)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		}},
		{"SIMT", func(k *vgiw.Kernel, mem []uint32) (int64, error) {
			res, err := vgiw.RunSIMT(k, launch, mem, nil)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		}},
	}

	// Host reference BFS.
	want := make([]int64, nodes)
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	for frontier := []uint32{0}; len(frontier) > 0; {
		var next []uint32
		for _, n := range frontier {
			for e := g.starting[n]; e < g.starting[n]+g.count[n]; e++ {
				if id := g.edges[e]; want[id] < 0 {
					want[id] = want[n] + 1
					next = append(next, id)
				}
			}
		}
		frontier = next
	}

	for _, m := range machines {
		mem := g.image(l)
		levels, cycles := 0, int64(0)
		for {
			c1, err := m.run(bfsExpand(l), mem)
			if err != nil {
				t.Fatalf("%s kernel1: %v", m.name, err)
			}
			mem[l.over] = 0
			c2, err := m.run(bfsPromote(l), mem)
			if err != nil {
				t.Fatalf("%s kernel2: %v", m.name, err)
			}
			levels++
			cycles += c1 + c2
			if mem[l.over] == 0 {
				break
			}
			if levels > nodes {
				t.Fatalf("%s: BFS did not converge", m.name)
			}
		}
		reached := 0
		for i := 0; i < nodes; i++ {
			if got := int32(mem[l.cost+i]); int64(got) != want[i] {
				t.Fatalf("%s: node %d at distance %d, host BFS has %d", m.name, i, got, want[i])
			}
			if want[i] >= 0 {
				reached++
			}
		}
		if reached < nodes/2 {
			t.Fatalf("%s: only %d of %d nodes reached; the graph is too sparse to test", m.name, reached, nodes)
		}
		t.Logf("%s: %d levels, %d simulated cycles, %d reachable nodes at the host BFS's distances",
			m.name, levels, cycles, reached)
	}
}
