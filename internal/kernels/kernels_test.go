package kernels

import (
	"testing"

	"vgiw/internal/compile"
	"vgiw/internal/fabric"
	"vgiw/internal/kir"
	"vgiw/internal/sgmf"
)

// TestRegistryComplete checks the registry covers Table 2's applications.
func TestRegistryComplete(t *testing.T) {
	apps := map[string]bool{}
	for _, s := range All() {
		apps[s.App] = true
	}
	for _, want := range []string{"BFS", "KMEANS", "CFD", "LUD", "GE", "HOTSPOT",
		"LAVAMD", "NN", "PF", "BPNN", "NW", "SM"} {
		if !apps[want] {
			t.Errorf("application %s missing from registry", want)
		}
	}
	if len(All()) < 13 {
		t.Errorf("registry has %d kernels, want >= 13", len(All()))
	}
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name] {
			t.Errorf("duplicate kernel name %s", s.Name)
		}
		seen[s.Name] = true
		if s.PaperBlocks <= 0 || s.Build == nil || s.Description == "" || s.Domain == "" {
			t.Errorf("kernel %s has incomplete metadata", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("nn.euclid"); !ok {
		t.Error("nn.euclid not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("found nonexistent kernel")
	}
	if len(Names()) != len(All()) {
		t.Error("Names/All mismatch")
	}
}

// TestAllKernelsMatchHostReference is the IR-correctness gate: the golden
// interpreter must reproduce each workload's host-side Go reference exactly.
func TestAllKernelsMatchHostReference(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Kernel.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := inst.Kernel.ValidateLaunch(inst.Launch); err != nil {
				t.Fatal(err)
			}
			in := &kir.Interp{Kernel: inst.Kernel, Launch: inst.Launch, Global: inst.Global}
			if err := in.Run(); err != nil {
				t.Fatal(err)
			}
			if err := inst.Check(inst.Global); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelsCompile checks every kernel survives the full compiler pipeline
// and that each block's DFG fits the default fabric.
func TestKernelsCompile(t *testing.T) {
	grid, err := fabric.NewGrid(fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := compile.CompileFitted(inst.Kernel, grid.Fits)
			if err != nil {
				t.Fatal(err)
			}
			for bi, g := range ck.DFGs {
				if fit := fabric.MaxReplicasFor(grid, g); fit == 0 {
					t.Errorf("block %d (%d nodes, %v) does not fit the fabric",
						bi, len(g.Nodes), g.ClassCounts())
				}
			}
			t.Logf("%s: %d blocks (paper: %d), %d instrs",
				spec.Name, len(ck.Kernel.Blocks), spec.PaperBlocks, ck.Kernel.NumInstrs())
		})
	}
}

// TestSGMFEligibilityClaims verifies the registry's SGMF flags against the
// actual SGMF compiler outcome (scheduling + if-conversion + placement).
func TestSGMFEligibilityClaims(t *testing.T) {
	m, err := sgmf.NewMachine(sgmf.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Map(inst.Kernel); (err == nil) != spec.SGMF {
				t.Errorf("SGMF flag %v but Map error = %v", spec.SGMF, err)
			}
		})
	}
}

// TestScalesProduceLargerInstances sanity-checks the scale knob.
func TestScalesProduceLargerInstances(t *testing.T) {
	spec, _ := ByName("nn.euclid")
	small, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := spec.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if big.Launch.Threads() <= small.Launch.Threads() {
		t.Error("scale 2 not larger than scale 1")
	}
	if clamped, _ := spec.Build(-5); clamped.Launch.Threads() != small.Launch.Threads() {
		t.Error("negative scale should clamp to 1")
	}
}

// TestInstancesAreFresh: two builds must not share memory (machines mutate
// Global in place).
func TestInstancesAreFresh(t *testing.T) {
	spec, _ := ByName("ge.fan1")
	a, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Global[0] ^= 0xFFFFFFFF
	if a.Global[0] == b.Global[0] {
		t.Error("instances share global memory")
	}
	if a.Kernel == b.Kernel {
		t.Error("instances share the kernel object")
	}
}

// TestKernelsScale2 revalidates every workload at a larger scale, guarding
// the input generators' scaling logic.
func TestKernelsScale2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build(2)
			if err != nil {
				t.Fatal(err)
			}
			in := &kir.Interp{Kernel: inst.Kernel, Launch: inst.Launch, Global: inst.Global}
			if err := in.Run(); err != nil {
				t.Fatal(err)
			}
			if err := inst.Check(inst.Global); err != nil {
				t.Fatal(err)
			}
		})
	}
}
