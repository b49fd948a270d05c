// Package fabric models the multithreaded coarse-grained reconfigurable
// fabric (MT-CGRF) of §3.5: a grid of heterogeneous functional units joined
// by a folded-hypercube interconnect, onto which the compiler places one or
// more replicas of a basic block's dataflow graph.
package fabric

import (
	"fmt"

	"vgiw/internal/kir"
)

// Config describes the fabric, matching Table 1 by default.
type Config struct {
	Cols, Rows int // grid dimensions; Cols*Rows units

	// Unit mix (must sum to Cols*Rows).
	NumALU  int // combined FPU-ALU compute units
	NumSCU  int // special compute units (non-pipelined ops, one new operation per cycle, §3.5)
	NumLDST int // load/store units (grid perimeter)
	NumLVU  int // live-value units (grid perimeter)
	NumSJU  int // split/join units
	NumCVU  int // control vector units

	// TokenBufDepth is the number of virtual execution channels per unit:
	// how many distinct threads can be in flight inside one replica.
	TokenBufDepth int
	// ReservationSlots bounds outstanding memory operations per LDST unit;
	// these buffers are what lets unblocked threads overtake stalled ones.
	ReservationSlots int
	// ConfigCycles is the cost of reconfiguring the grid with a new
	// dataflow graph (34 cycles in the paper's prototype, §3.2).
	ConfigCycles int64
	// MaxReplicas caps basic-block replication.
	MaxReplicas int
}

// DefaultConfig is the Table 1 machine: a 108-unit grid with 32 FPU-ALUs,
// 12 SCUs, 16 LVUs, 16 LDST units, 16 SJUs and 16 CVUs.
func DefaultConfig() Config {
	return Config{
		Cols: 12, Rows: 9,
		NumALU: 32, NumSCU: 12, NumLDST: 16, NumLVU: 16, NumSJU: 16, NumCVU: 16,
		TokenBufDepth:    96,
		ReservationSlots: 64,
		ConfigCycles:     34,
		MaxReplicas:      8,
	}
}

// Validate checks the unit mix fills the grid exactly and the perimeter can
// host the memory units.
func (c Config) Validate() error {
	total := c.NumALU + c.NumSCU + c.NumLDST + c.NumLVU + c.NumSJU + c.NumCVU
	if total != c.Cols*c.Rows {
		return fmt.Errorf("fabric: unit mix sums to %d, grid has %d cells", total, c.Cols*c.Rows)
	}
	if c.Cols < 3 || c.Rows < 3 {
		return fmt.Errorf("fabric: grid %dx%d too small", c.Cols, c.Rows)
	}
	perim := 2*(c.Cols+c.Rows) - 4
	if c.NumLDST+c.NumLVU > perim {
		return fmt.Errorf("fabric: %d memory units exceed perimeter %d", c.NumLDST+c.NumLVU, perim)
	}
	if c.TokenBufDepth <= 0 || c.ReservationSlots <= 0 || c.MaxReplicas <= 0 {
		return fmt.Errorf("fabric: depths and replica cap must be positive")
	}
	return nil
}

// Unit is one functional unit at a fixed grid position.
type Unit struct {
	ID    int
	Class kir.UnitClass
	X, Y  int
}

// Grid is the instantiated fabric.
type Grid struct {
	cfg     Config
	Units   []Unit
	byClass map[kir.UnitClass][]int
}

// NewGrid lays the configured unit mix onto the grid. LDST and LVU units
// alternate along the perimeter (§3.5 places them there, next to the L1
// crossbar); compute, SJU, CVU and SCU units interleave across the interior
// so every neighborhood has a mix of classes.
func NewGrid(cfg Config) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Grid{cfg: cfg, byClass: make(map[kir.UnitClass][]int)}

	// Collect perimeter and interior coordinates deterministically.
	type pos struct{ x, y int }
	var perim, interior []pos
	for y := 0; y < cfg.Rows; y++ {
		for x := 0; x < cfg.Cols; x++ {
			if x == 0 || y == 0 || x == cfg.Cols-1 || y == cfg.Rows-1 {
				perim = append(perim, pos{x, y})
			} else {
				interior = append(interior, pos{x, y})
			}
		}
	}

	// Perimeter: alternate LDST and LVU, then spill leftovers of other
	// classes into the remaining perimeter slots.
	var perimClasses []kir.UnitClass
	ldst, lvu := cfg.NumLDST, cfg.NumLVU
	for ldst > 0 || lvu > 0 {
		if ldst > 0 {
			perimClasses = append(perimClasses, kir.ClassLDST)
			ldst--
		}
		if lvu > 0 {
			perimClasses = append(perimClasses, kir.ClassLVU)
			lvu--
		}
	}

	// Interior (plus any perimeter slack): interleave the remaining
	// classes proportionally.
	remaining := map[kir.UnitClass]int{
		kir.ClassALU: cfg.NumALU,
		kir.ClassSCU: cfg.NumSCU,
		kir.ClassSJU: cfg.NumSJU,
		kir.ClassCVU: cfg.NumCVU,
	}
	order := []kir.UnitClass{kir.ClassALU, kir.ClassCVU, kir.ClassALU, kir.ClassSJU, kir.ClassALU, kir.ClassSCU}
	var mixed []kir.UnitClass
	for len(mixed) < cfg.NumALU+cfg.NumSCU+cfg.NumSJU+cfg.NumCVU {
		progressed := false
		for _, cl := range order {
			if remaining[cl] > 0 {
				mixed = append(mixed, cl)
				remaining[cl]--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}

	place := func(p pos, cl kir.UnitClass) {
		id := len(g.Units)
		g.Units = append(g.Units, Unit{ID: id, Class: cl, X: p.x, Y: p.y})
		g.byClass[cl] = append(g.byClass[cl], id)
	}
	pi := 0
	for _, cl := range perimClasses {
		place(perim[pi], cl)
		pi++
	}
	cells := append(interior, perim[pi:]...)
	if len(mixed) != len(cells) {
		return nil, fmt.Errorf("fabric: internal layout mismatch: %d classes for %d cells", len(mixed), len(cells))
	}
	for i, cl := range mixed {
		place(cells[i], cl)
	}
	return g, nil
}

// Config returns the grid configuration.
func (g *Grid) Config() Config { return g.cfg }

// NumUnits reports the total unit count.
func (g *Grid) NumUnits() int { return len(g.Units) }

// Hops returns the token latency in cycles between two units. The folded
// hypercube connects each unit to its four nearest units and four nearest
// switches, and switches to switches at Manhattan distance two — so a token
// covers roughly two grid cells per cycle, with a one-cycle minimum.
func (g *Grid) Hops(a, b int) int64 {
	ua, ub := g.Units[a], g.Units[b]
	dx := ua.X - ub.X
	if dx < 0 {
		dx = -dx
	}
	dy := ua.Y - ub.Y
	if dy < 0 {
		dy = -dy
	}
	d := dx
	if dy > d {
		d = dy
	}
	if d == 0 {
		return 1
	}
	return int64((d + 1) / 2)
}
