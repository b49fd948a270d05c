package verify_test

import (
	"testing"

	"vgiw/internal/kernels"
	"vgiw/internal/verify"
)

// TestRegistryKernelsVerify runs the source-level verifier over every
// benchmark kernel in the registry: the checks must hold on all real
// frontends, not just the invalid corpus. This is the false-positive gate
// for the type and def-use analyses.
func TestRegistryKernelsVerify(t *testing.T) {
	for _, spec := range kernels.All() {
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(1)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if ds := verify.Kernel("frontend", inst.Kernel, verify.Source); len(ds) > 0 {
				for _, d := range ds {
					t.Errorf("%v", d)
				}
			}
			if err := inst.Kernel.ValidateLaunch(inst.Launch); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestValidateAllocatesNothing guards the kernel check that the
// interpreter, the compiler and every machine run on their input: on a
// valid registry kernel it must not allocate.
func TestValidateAllocatesNothing(t *testing.T) {
	for _, spec := range kernels.All() {
		inst, err := spec.Build(1)
		if err != nil {
			t.Fatalf("%s: build: %v", spec.Name, err)
		}
		k := inst.Kernel
		allocs := testing.AllocsPerRun(20, func() {
			if err := k.Validate(); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Validate allocates %v times per call, want 0", spec.Name, allocs)
		}
	}
}
