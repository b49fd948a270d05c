package fabric

import (
	"fmt"

	"vgiw/internal/compile"
	"vgiw/internal/kir"
)

// Placement maps every node of every replica of a dataflow graph to a
// physical unit, with per-edge token latencies derived from the interconnect
// topology.
//
// Immutability contract: a Placement (and the BlockDFG it points at) is
// frozen once Place/PlaceMax returns. The engine only reads it during
// execution, and placement depends solely on the graph and the fabric
// configuration — not on LVC/CVT/memory parameters — so one Placement may be
// shared by any number of concurrent runs on machines with the same fabric
// config (the harness's artifact cache relies on this).
type Placement struct {
	Graph    *compile.BlockDFG
	Replicas int
	// UnitOf[r][n] is the unit hosting node n of replica r.
	UnitOf [][]int
	// EdgeLat[r][n][i] is the token latency from In[i]'s producer to node n
	// in replica r (parallel to Graph.Nodes[n].In).
	EdgeLat [][][]int64
	// CtlLat[r][n][i] mirrors EdgeLat for control edges (CtlIn).
	CtlLat [][][]int64
	// HopSum[r][n] is the total token distance into node n of replica r —
	// the sum of EdgeLat[r][n] and CtlLat[r][n]. Precomputed here so the
	// engine's per-thread hop accounting is one table read instead of two
	// edge-list walks per node visit.
	HopSum [][]uint64
	// AvgHops is the mean data-edge latency, a routing quality metric.
	AvgHops float64
}

// MaxReplicasFor computes how many replicas of the graph fit the grid:
// the minimum over unit classes of available/needed, capped by the
// configured maximum. Zero means the graph does not fit at all.
func MaxReplicasFor(g *Grid, graph *compile.BlockDFG) int {
	var counts [kir.NumUnitClasses]int
	for _, n := range graph.Nodes {
		counts[n.Class()]++
	}
	r := g.cfg.MaxReplicas
	for cl, need := range counts {
		if need > 0 && len(g.byClass[cl])/need < r {
			r = len(g.byClass[cl]) / need
		}
	}
	return r
}

// Place maps `replicas` copies of the graph onto the grid. Nodes are placed
// in topological order; each node takes the free unit of its class that
// minimizes the summed distance to its already-placed producers, the first
// such unit on a tie. Place fails if the replicas exceed capacity.
func Place(g *Grid, graph *compile.BlockDFG, replicas int) (*Placement, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("fabric: need at least one replica")
	}
	if fit := MaxReplicasFor(g, graph); replicas > fit {
		return nil, fmt.Errorf("fabric: %d replicas of %q (%d nodes) exceed capacity (fit %d)",
			replicas, graphName(graph), len(graph.Nodes), fit)
	}

	p := &Placement{Graph: graph, Replicas: replicas}
	free := make([]bool, len(g.Units))
	for u := range free {
		free[u] = true
	}

	totalHops, totalEdges := int64(0), 0
	for r := 0; r < replicas; r++ {
		unitOf := make([]int, len(graph.Nodes))
		for _, n := range graph.Nodes {
			// Every edge costs at least one cycle (Hops' minimum), so no
			// candidate beats one at floor and the scan stops there. The
			// initiator has no producers and takes the first free unit.
			floor := int64(len(n.In) + len(n.CtlIn))
			best, bestCost := -1, int64(1<<62)
			for _, cand := range g.byClass[n.Class()] {
				if !free[cand] {
					continue
				}
				cost := int64(0)
				for _, in := range n.In {
					cost += g.Hops(unitOf[in], cand)
				}
				for _, in := range n.CtlIn {
					cost += g.Hops(unitOf[in], cand)
				}
				if cost < bestCost {
					best, bestCost = cand, cost
					if cost == floor {
						break
					}
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("fabric: out of %v units placing node %d of replica %d",
					n.Class(), n.ID, r)
			}
			free[best] = false
			unitOf[n.ID] = best
		}
		p.UnitOf = append(p.UnitOf, unitOf)

		edgeLat := make([][]int64, len(graph.Nodes))
		ctlLat := make([][]int64, len(graph.Nodes))
		hopSum := make([]uint64, len(graph.Nodes))
		for _, n := range graph.Nodes {
			el := make([]int64, len(n.In))
			for i, in := range n.In {
				el[i] = g.Hops(unitOf[in], unitOf[n.ID])
				totalHops += el[i]
				totalEdges++
			}
			cl := make([]int64, len(n.CtlIn))
			for i, in := range n.CtlIn {
				cl[i] = g.Hops(unitOf[in], unitOf[n.ID])
			}
			edgeLat[n.ID] = el
			ctlLat[n.ID] = cl
			var hops uint64
			for _, l := range el {
				hops += uint64(l)
			}
			for _, l := range cl {
				hops += uint64(l)
			}
			hopSum[n.ID] = hops
		}
		p.EdgeLat = append(p.EdgeLat, edgeLat)
		p.CtlLat = append(p.CtlLat, ctlLat)
		p.HopSum = append(p.HopSum, hopSum)
	}
	if totalEdges > 0 {
		p.AvgHops = float64(totalHops) / float64(totalEdges)
	}
	return p, nil
}

// PlaceMax places as many replicas as fit (at least one).
func PlaceMax(g *Grid, graph *compile.BlockDFG) (*Placement, error) {
	fit := MaxReplicasFor(g, graph)
	if fit == 0 {
		return nil, fmt.Errorf("fabric: graph %q (%d nodes, %v) does not fit the grid",
			graphName(graph), len(graph.Nodes), graph.ClassCounts())
	}
	return Place(g, graph, fit)
}

func graphName(graph *compile.BlockDFG) string {
	return fmt.Sprintf("block%d", graph.BlockID)
}

// Fits returns a predicate reporting whether a graph fits this grid at
// least once (used by compile.CompileFitted to drive block splitting).
func (g *Grid) Fits(graph *compile.BlockDFG) bool {
	return MaxReplicasFor(g, graph) > 0
}
