package engine

import (
	"fmt"

	"vgiw/internal/kir"
	"vgiw/internal/mem"
)

// DataEnv is the standard execution environment shared by the VGIW core and
// the SGMF baseline: a launch configuration, flat global memory, per-CTA
// scratchpads, and the memory-system timing model.
type DataEnv struct {
	Launch kir.Launch
	Global []uint32
	Shared [][]uint32 // indexed by CTA
	Sys    *mem.System
}

// NewDataEnv allocates the per-CTA scratchpads for a kernel launch.
func NewDataEnv(k *kir.Kernel, launch kir.Launch, global []uint32, sys *mem.System) (*DataEnv, error) {
	if err := k.ValidateLaunch(launch); err != nil {
		return nil, err
	}
	shared := make([][]uint32, launch.CTAs())
	for i := range shared {
		shared[i] = make([]uint32, k.SharedWds)
	}
	return &DataEnv{Launch: launch, Global: global, Shared: shared, Sys: sys}, nil
}

// Hooks builds the engine hooks for this environment. Branch, AccessLV and
// AccessLVFast start nil; the caller wires them in.
func (d *DataEnv) Hooks() *Hooks {
	return &Hooks{
		Param:         func(i int) uint32 { return d.Launch.Params[i] },
		Geometry:      d.Launch.Geometry,
		AccessMem:     d.accessMem,
		AccessMemFast: d.accessMemFast,
	}
}

// accessMem is the timed memory hook: bounds check, timing-model access,
// then the data effect.
func (d *DataEnv) accessMem(space Space, addr int64, write bool, value uint32, tid int, now int64) (uint32, int64, error) {
	w, err := d.word(space, addr, write, tid)
	if err != nil {
		return 0, 0, err
	}
	var done int64
	if space == SpaceShared {
		done = d.Sys.AccessShared(addr, now)
	} else {
		done = d.Sys.AccessWord(addr, write, now)
	}
	return access(w, write, value), done, nil
}

// accessMemFast is accessMem without the timing model: the same bounds
// check, errors and data effect.
func (d *DataEnv) accessMemFast(space Space, addr int64, write bool, value uint32, tid int) (uint32, error) {
	w, err := d.word(space, addr, write, tid)
	if err != nil {
		return 0, err
	}
	return access(w, write, value), nil
}

// word returns the memory word a thread addresses, or the error for an
// address outside its space.
func (d *DataEnv) word(space Space, addr int64, write bool, tid int) (*uint32, error) {
	var mem []uint32
	var name string
	switch space {
	case SpaceGlobal:
		mem, name = d.Global, "global"
	case SpaceShared:
		mem, name = d.Shared[d.Launch.CTAOf(tid)], "shared"
	default:
		return nil, fmt.Errorf("engine: unknown address space %d", space)
	}
	if addr < 0 || addr >= int64(len(mem)) {
		return nil, fmt.Errorf("engine: thread %d: %s %s out of bounds: %d (size %d)",
			tid, name, rw(write), addr, len(mem))
	}
	return &mem[addr], nil
}

// access stores value to *w, or loads *w: the data effect of one access.
func access(w *uint32, write bool, value uint32) uint32 {
	if write {
		*w = value
		return 0
	}
	return *w
}

func rw(write bool) string {
	if write {
		return "store"
	}
	return "load"
}
