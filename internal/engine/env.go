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
	if err := launch.Validate(); err != nil {
		return nil, err
	}
	if len(launch.Params) != k.NumParams {
		return nil, fmt.Errorf("engine: kernel %s wants %d params, launch has %d",
			k.Name, k.NumParams, len(launch.Params))
	}
	shared := make([][]uint32, launch.CTAs())
	for i := range shared {
		shared[i] = make([]uint32, k.SharedWds)
	}
	return &DataEnv{Launch: launch, Global: global, Shared: shared, Sys: sys}, nil
}

// Hooks builds the engine hooks for this environment. Branch and AccessLV
// start nil; the caller wires them in.
func (d *DataEnv) Hooks() *Hooks {
	return &Hooks{
		Param:     func(i int) uint32 { return d.Launch.Params[i] },
		Geometry:  d.Launch.Geometry,
		AccessMem: d.accessMem,
		AccessMemFast: func(space Space, addr int64, write bool, value uint32, tid int) (uint32, error) {
			// Functional twin of AccessMem: identical bounds checks, errors
			// and data effects, no timing-model calls.
			switch space {
			case SpaceGlobal:
				if addr < 0 || addr >= int64(len(d.Global)) {
					return 0, fmt.Errorf("engine: thread %d: global %s out of bounds: %d (size %d)",
						tid, rw(write), addr, len(d.Global))
				}
				if write {
					d.Global[addr] = value
					return 0, nil
				}
				return d.Global[addr], nil
			case SpaceShared:
				cta := d.Launch.CTAOf(tid)
				sh := d.Shared[cta]
				if addr < 0 || addr >= int64(len(sh)) {
					return 0, fmt.Errorf("engine: thread %d: shared %s out of bounds: %d (size %d)",
						tid, rw(write), addr, len(sh))
				}
				if write {
					sh[addr] = value
					return 0, nil
				}
				return sh[addr], nil
			}
			return 0, fmt.Errorf("engine: unknown address space %d", space)
		},
	}
}

// accessMem is the timed memory hook: bounds check, timing-model access,
// then the data effect.
func (d *DataEnv) accessMem(space Space, addr int64, write bool, value uint32, tid int, now int64) (uint32, int64, error) {
	switch space {
	case SpaceGlobal:
		if addr < 0 || addr >= int64(len(d.Global)) {
			return 0, 0, fmt.Errorf("engine: thread %d: global %s out of bounds: %d (size %d)",
				tid, rw(write), addr, len(d.Global))
		}
		done := d.Sys.AccessWord(addr, write, now)
		if write {
			d.Global[addr] = value
			return 0, done, nil
		}
		return d.Global[addr], done, nil
	case SpaceShared:
		cta := d.Launch.CTAOf(tid)
		sh := d.Shared[cta]
		if addr < 0 || addr >= int64(len(sh)) {
			return 0, 0, fmt.Errorf("engine: thread %d: shared %s out of bounds: %d (size %d)",
				tid, rw(write), addr, len(sh))
		}
		done := d.Sys.AccessShared(addr, now)
		if write {
			sh[addr] = value
			return 0, done, nil
		}
		return sh[addr], done, nil
	}
	return 0, 0, fmt.Errorf("engine: unknown address space %d", space)
}

func rw(write bool) string {
	if write {
		return "store"
	}
	return "load"
}
