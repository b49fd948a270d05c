package vgiw

import "testing"

// buildScale is the doc-comment quickstart kernel: x[i] *= 2.
func buildScale() *Kernel {
	b := NewKernelBuilder("scale")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	addr := b.Add(b.Param(0), b.Tid())
	v := b.Load(addr, 0)
	b.Store(addr, 0, b.FMul(v, b.ConstF(2)))
	b.Ret()
	return b.MustBuild()
}

func scaleInput(n int) []uint32 {
	g := make([]uint32, n)
	for i := range g {
		g[i] = F32(float32(i))
	}
	return g
}

func checkDoubled(t *testing.T, got []uint32, arch string) {
	t.Helper()
	for i := range got {
		if want := F32(2 * float32(i)); got[i] != want {
			t.Fatalf("%s: x[%d] = %v, want %v", arch, i, AsF32(got[i]), AsF32(want))
		}
	}
}

// TestFacadeRunsAllMachines drives the public API end to end: build a
// kernel, run it on all three machines and the interpreter, compare.
func TestFacadeRunsAllMachines(t *testing.T) {
	const n = 256
	launch := Launch1D(n/32, 32, 0)

	g := scaleInput(n)
	if err := Interpret(buildScale(), launch, g); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, g, "interp")

	g = scaleInput(n)
	rv, err := RunVGIW(buildScale(), launch, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, g, "vgiw")
	if rv.Cycles <= 0 {
		t.Error("vgiw reported no cycles")
	}

	g = scaleInput(n)
	rs, err := RunSIMT(buildScale(), launch, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, g, "simt")
	if rs.WarpInstrs == 0 {
		t.Error("simt reported no instructions")
	}

	g = scaleInput(n)
	rg, err := RunSGMF(buildScale(), launch, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, g, "sgmf")
	if rg.Replicas < 1 {
		t.Error("sgmf placed no replicas")
	}
}

func TestFacadeKasmRoundTrip(t *testing.T) {
	k := buildScale()
	text := PrintKasm(k)
	k2, err := ParseKasm(text)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	g := scaleInput(n)
	if err := Interpret(k2, Launch1D(2, 32, 0), g); err != nil {
		t.Fatal(err)
	}
	checkDoubled(t, g, "kasm")
}

func TestFacadeWorkloads(t *testing.T) {
	if len(Workloads()) < 13 {
		t.Fatalf("only %d workloads registered", len(Workloads()))
	}
	w, ok := WorkloadByName("nn.euclid")
	if !ok {
		t.Fatal("nn.euclid missing")
	}
	run, err := RunExperiment(w, DefaultExperimentOptions())
	if err != nil {
		t.Fatal(err)
	}
	if run.Speedup() <= 0 {
		t.Error("speedup not computed")
	}
	if run.SGMF == nil {
		t.Error("nn.euclid should be SGMF-mappable")
	}
}

// TestFacadeLeavesKernelUnchanged runs every registry kernel's one kernel
// object through all three machines. Compilation reorders, splits and
// rematerializes blocks in place, so each entry point must compile a copy:
// the caller's kernel prints the same kasm afterwards.
func TestFacadeLeavesKernelUnchanged(t *testing.T) {
	for _, w := range Workloads() {
		inst, err := w.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		k := inst.Kernel
		before := PrintKasm(k)
		global := func() []uint32 { return append([]uint32(nil), inst.Global...) }
		if _, err := RunVGIW(k, inst.Launch, global(), nil); err != nil {
			t.Fatalf("%s on vgiw: %v", w.Name, err)
		}
		if _, err := RunSIMT(k, inst.Launch, global(), nil); err != nil {
			t.Fatalf("%s on simt: %v", w.Name, err)
		}
		// SGMF rejects the kernels it cannot map; the attempt must not
		// change them either.
		if _, err := RunSGMF(k, inst.Launch, global(), nil); err != nil && w.SGMF {
			t.Fatalf("%s on sgmf: %v", w.Name, err)
		}
		if after := PrintKasm(k); after != before {
			t.Errorf("%s: the facade runs changed the caller's kernel:\nbefore:\n%s\nafter:\n%s", w.Name, before, after)
		}
	}
}
