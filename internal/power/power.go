// Package power is the event-based energy model (the GPUWattch analogue of
// §4). Each architectural event carries a per-event energy drawn from a
// table of 40nm-class constants; total kernel energy is the event-weighted
// sum plus static leakage integrated over the runtime.
//
// Following the paper's methodology, energy efficiency is defined as
// work/energy; since the compared architectures execute the same kernel, the
// efficiency ratio of A over B is E_B / E_A (§5).
//
// The component buckets reproduce Figure 10's three levels:
//
//	core   = compute engine (+ RF / LVC / CVT / token traffic / pipeline)
//	die    = core + L1 + L2 + memory controller
//	system = die + DRAM
package power

import (
	"vgiw/internal/core"
	"vgiw/internal/engine"
	"vgiw/internal/kir"
	"vgiw/internal/mem"
	"vgiw/internal/sgmf"
	"vgiw/internal/simt"
)

// Table holds per-event energies in picojoules and per-cycle static power in
// picojoules per cycle. The defaults are calibrated so that (a) the Fermi
// baseline's pipeline + register file overhead lands near the ~30% of power
// that the paper (citing [3,4]) attributes to them, and (b) the VGIW core's
// advantage comes from eliminating exactly those structures.
type Table struct {
	// Compute (per active lane / per node execution).
	IntOp float64
	FPOp  float64
	SFUOp float64

	// Von Neumann overheads (per warp instruction / per lane word).
	PipelineWarp float64 // fetch+decode+schedule per warp instruction
	RFWord       float64 // register file access per lane word

	// Dataflow overheads.
	TokenHop    float64 // interconnect energy per hop
	TokenBuffer float64 // token buffer write+read per transfer
	SJUOp       float64 // split/join execution
	CVUOp       float64 // control vector unit execution
	LVCAccess   float64 // live value cache access (word)
	CVTAccess   float64 // control vector table access (64-bit word)
	ConfigUnit  float64 // per functional unit per reconfiguration

	// Memory hierarchy (per access).
	L1Access     float64
	L2Access     float64
	MCAccess     float64 // memory controller, per DRAM transaction
	DRAMAccess   float64
	SharedAccess float64

	// Static power, pJ per core cycle, by bucket.
	StaticCore float64
	StaticL1   float64
	StaticL2   float64
	StaticMC   float64
	StaticDRAM float64
}

// DefaultTable returns the calibrated constants.
func DefaultTable() Table {
	return Table{
		IntOp: 0.8,
		FPOp:  2.2,
		SFUOp: 12,

		PipelineWarp: 32,
		RFWord:       0.9,

		TokenHop:    0.35,
		TokenBuffer: 0.30,
		SJUOp:       0.3,
		CVUOp:       0.5,
		LVCAccess:   1.6,
		CVTAccess:   1.0,
		ConfigUnit:  8,

		L1Access:     20,
		L2Access:     45,
		MCAccess:     25,
		DRAMAccess:   320,
		SharedAccess: 2.5,

		StaticCore: 14,
		StaticL1:   2,
		StaticL2:   4,
		StaticMC:   1.5,
		StaticDRAM: 8,
	}
}

// Breakdown is kernel energy by component, in picojoules.
type Breakdown struct {
	Core float64
	L1   float64
	L2   float64
	MC   float64
	DRAM float64
}

// CoreLevel is the compute-engine energy (Figure 10 "core").
func (b Breakdown) CoreLevel() float64 { return b.Core }

// DieLevel adds the on-die memory system (Figure 10 "die").
func (b Breakdown) DieLevel() float64 { return b.Core + b.L1 + b.L2 + b.MC }

// SystemLevel adds DRAM (Figure 10 "system").
func (b Breakdown) SystemLevel() float64 { return b.DieLevel() + b.DRAM }

// memEnergy prices the shared memory-hierarchy events.
func memEnergy(t Table, l1, l2, dram uint64, cycles int64) Breakdown {
	c := float64(cycles)
	return Breakdown{
		L1:   float64(l1)*t.L1Access + c*t.StaticL1,
		L2:   float64(l2)*t.L2Access + c*t.StaticL2,
		MC:   float64(dram)*t.MCAccess + c*t.StaticMC,
		DRAM: float64(dram)*t.DRAMAccess + c*t.StaticDRAM,
	}
}

// fabricEnergy prices a run on the MT-CGRF, which VGIW and SGMF share: the
// memory hierarchy, then a core sum of the fabric's events in c, the
// machine's own overheads in the order given, shared memory and static
// power. The sum runs left to right in that order.
func fabricEnergy(t Table, c engine.Counts, ms mem.SystemStats, cycles int64, overheads ...float64) Breakdown {
	b := memEnergy(t, ms.L1.Accesses(), ms.L2.Accesses(), ms.DRAM.Accesses(), cycles)
	intOps := float64(c.Ops[kir.ClassALU] - c.FPOps)
	b.Core = intOps*t.IntOp +
		float64(c.FPOps)*t.FPOp +
		float64(c.Ops[kir.ClassSCU])*t.SFUOp +
		float64(c.Ops[kir.ClassSJU])*t.SJUOp +
		float64(c.Ops[kir.ClassCVU]+c.Ops[kir.ClassLVU]+c.Ops[kir.ClassLDST])*t.CVUOp +
		float64(c.TokenHops)*t.TokenHop +
		float64(c.TokenTransfers)*t.TokenBuffer
	for _, e := range overheads {
		b.Core += e
	}
	b.Core = b.Core +
		float64(c.SharedAccesses)*t.SharedAccess +
		float64(cycles)*t.StaticCore
	return b
}

// VGIW prices a VGIW kernel execution: the fabric plus the LVC, the CVT and
// every reconfiguration of the 108 units.
func VGIW(r *core.Result, t Table) Breakdown {
	return fabricEnergy(t, r.Counts, r.MemStats, r.Cycles,
		float64(r.LVCLoads+r.LVCStores)*t.LVCAccess,
		float64(r.CVTReads+r.CVTWrites)*t.CVTAccess,
		float64(r.Reconfigs)*108*t.ConfigUnit)
}

// SIMT prices a Fermi-SM kernel execution.
func SIMT(r *simt.Result, t Table) Breakdown {
	b := memEnergy(t, r.MemStats.L1.Accesses(), r.MemStats.L2.Accesses(),
		r.MemStats.DRAM.Accesses(), r.Cycles)

	intOps := float64(r.ALUOps - r.FPOps)
	b.Core = intOps*t.IntOp +
		float64(r.FPOps)*t.FPOp +
		float64(r.SFUOps)*t.SFUOp +
		float64(r.MemOps)*t.CVUOp + // LD/ST unit issue energy, same rate as VGIW's
		float64(r.WarpInstrs)*t.PipelineWarp +
		float64(r.RFReads+r.RFWrites)*t.RFWord +
		float64(r.ShTrans)*t.SharedAccess +
		float64(r.Cycles)*t.StaticCore
	return b
}

// SGMF prices an SGMF kernel execution: the fabric, configured exactly
// once.
func SGMF(r *sgmf.Result, t Table) Breakdown {
	return fabricEnergy(t, r.Counts, r.MemStats, r.Cycles, 108*t.ConfigUnit)
}

// Efficiency returns the energy-efficiency ratio of the architecture whose
// energy is `over` relative to the one whose energy is `base`, following the
// paper's work/energy definition: ratio = E_base / E_over.
func Efficiency(base, over float64) float64 {
	if over == 0 {
		return 0
	}
	return base / over
}
