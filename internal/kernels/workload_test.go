package kernels

import (
	"reflect"
	"testing"
)

// TestWorkloadImageIsolation pins the copy-on-write handoff: a run may
// scribble over every word of the memory image it checked out, and neither
// the cached image nor any later checkout may see it.
func TestWorkloadImageIsolation(t *testing.T) {
	spec := All()[0]
	w, err := NewWorkload(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	frozen := append([]uint32(nil), w.baseImage()...)

	g := w.Global()
	if len(g) != len(w.image) {
		t.Fatalf("checkout has %d words, workload image %d", len(g), len(w.image))
	}
	for i := range g {
		g[i] = ^g[i] // simulate a run trashing its heap
	}
	for i, v := range w.baseImage() {
		if v != frozen[i] {
			t.Fatalf("run mutation leaked into the cached image at word %d: %d -> %d", i, frozen[i], v)
		}
	}
	g2 := w.Global()
	for i := range g2 {
		if g2[i] != frozen[i] {
			t.Fatalf("second checkout saw the first run's writes at word %d", i)
		}
	}
}

// TestWorkloadKernelIsolation: every Kernel() checkout is a private deep
// copy, so a compile mutating it in place cannot corrupt the shared artifact.
func TestWorkloadKernelIsolation(t *testing.T) {
	spec := All()[0]
	w, err := NewWorkload(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	k1 := w.Kernel()
	if k1 == w.kernel {
		t.Fatal("Kernel() handed out the cached kernel itself")
	}
	orig := w.kernel.Blocks[0].Label
	k1.Blocks[0].Label = "mutated-by-compile"
	k1.Blocks[0].Instrs = nil
	if w.kernel.Blocks[0].Label != orig || len(w.kernel.Blocks[0].Instrs) == 0 {
		t.Fatal("mutating a checked-out kernel reached the cached kernel")
	}
	if k2 := w.Kernel(); k2.Blocks[0].Label != orig {
		t.Fatal("second checkout saw the first checkout's mutations")
	}
}

// TestWorkloadInstanceMatchesBuild: the artifact path must hand out the
// launch and memory image a fresh Spec.Build would (deterministic
// generators), so cached and uncached runs start from identical state.
func TestWorkloadInstanceMatchesBuild(t *testing.T) {
	spec := All()[0]
	w, err := NewWorkload(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Launch, fresh.Launch) {
		t.Errorf("launch mismatch: %+v vs %+v", w.Launch, fresh.Launch)
	}
	global := w.Global()
	if len(global) != len(fresh.Global) {
		t.Fatalf("image sizes differ: %d vs %d", len(global), len(fresh.Global))
	}
	for i := range global {
		if global[i] != fresh.Global[i] {
			t.Fatalf("image word %d differs: %d vs %d", i, global[i], fresh.Global[i])
		}
	}
}
