package kernels

import "vgiw/internal/kir"

// Workload is the shared, immutable product of one Spec.Build call: the
// pristine kernel IR, the launch configuration, the initial memory image, and
// the host-reference validator. It is the cacheable half of an Instance —
// everything a run needs that does not change between runs.
//
// Immutability contract: the cached kernel and image are never handed out
// directly. Compiler passes mutate kernels in place (block scheduling,
// rematerialization, fabric-driven splitting), so Kernel() returns a deep
// copy; machines mutate global memory in place, so Global() returns a private
// copy of the image. Launch and Check are shared — Launch is read-only by
// every simulator (Params is never written), and Check closures only read the
// expected-output slices captured at build time.
type Workload struct {
	Spec   Spec
	Scale  int
	Launch kir.Launch

	// Check validates a run's final global memory against the host
	// reference. Safe for concurrent use: it reads only its argument and
	// the expected values precomputed by Build.
	Check func(final []uint32) error

	kernel *kir.Kernel
	image  []uint32
}

// NewWorkload builds the spec once and freezes the result for sharing.
func NewWorkload(spec Spec, scale int) (*Workload, error) {
	inst, err := spec.Build(scale)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Spec:   spec,
		Scale:  scale,
		Launch: inst.Launch,
		Check:  inst.Check,
		kernel: inst.Kernel,
		image:  inst.Global,
	}, nil
}

// Kernel returns a private deep copy of the pristine kernel IR. Every
// compile consumes its own copy because the compiler reorders blocks, splits
// them, and renumbers registers in place.
func (w *Workload) Kernel() *kir.Kernel { return w.kernel.Clone() }

// Global is the copy-on-write handoff of the initial memory image: the cached
// image stays immutable and each caller receives a private mutable heap.
// Every benchmark writes its output into global memory, so the "write" always
// happens and the copy is taken eagerly at checkout — true page-level COW
// would pay the same copy plus per-store interception in the simulators.
func (w *Workload) Global() []uint32 {
	g := make([]uint32, len(w.image))
	copy(g, w.image)
	return g
}

// baseImage exposes the shared image for tests that verify run mutations
// never leak back into the cache.
func (w *Workload) baseImage() []uint32 { return w.image }
