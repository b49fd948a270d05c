package vgiw_test

import (
	_ "embed"
	"fmt"
	"math"

	"vgiw"
)

// ExampleRunVGIW doubles an array on the VGIW machine.
func ExampleRunVGIW() {
	b := vgiw.NewKernelBuilder("double")
	b.SetParams(1)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	addr := b.Add(b.Param(0), b.Tid())
	b.Store(addr, 0, b.FMul(b.Load(addr, 0), b.ConstF(2)))
	b.Ret()
	kernel := b.MustBuild()

	global := make([]uint32, 64)
	for i := range global {
		global[i] = vgiw.F32(float32(i))
	}
	if _, err := vgiw.RunVGIW(kernel, vgiw.Launch1D(2, 32, 0), global, nil); err != nil {
		panic(err)
	}
	fmt.Println(vgiw.AsF32(global[3]), vgiw.AsF32(global[63]))
	// Output: 6 126
}

// ExampleParseKasm runs a kernel written in textual assembly.
func ExampleParseKasm() {
	kernel, err := vgiw.ParseKasm(`
kernel addone params=1 shared=0
@0 entry:
  r0 = tid
  r1 = param 0
  r2 = add r1 r0
  r3 = ld r2
  r4 = add r3 r0
  st r2 r4
  jmp @1
@1 exit:
  ret
`)
	if err != nil {
		panic(err)
	}
	global := []uint32{10, 10, 10, 10}
	if err := vgiw.Interpret(kernel, vgiw.Launch1D(1, 4, 0), global); err != nil {
		panic(err)
	}
	fmt.Println(global)
	// Output: [10 11 12 13]
}

// ExampleWorkloads lists a few of the Table 2 benchmark kernels.
func ExampleWorkloads() {
	for _, w := range vgiw.Workloads()[:3] {
		fmt.Printf("%s (%s)\n", w.Name, w.App)
	}
	// Output:
	// bpnn.adjust_weights (BPNN)
	// bpnn.layerforward (BPNN)
	// bfs.kernel1 (BFS)
}

// Example_saxpy builds a guarded saxpy with the builder API, runs it on the
// VGIW machine, checks a few results, and prints the run's structure: how
// many block vectors the BBS scheduled, how often it reconfigured the grid,
// the LVC and CVT traffic, and each block's replication factor.
func Example_saxpy() {
	// if (tid < n) y[tid] = a*x[tid] + y[tid]
	b := vgiw.NewKernelBuilder("saxpy")
	b.SetParams(4) // n, a, xBase, yBase
	entry := b.NewBlock("entry")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	b.Branch(b.SetLT(b.Tid(), b.Param(0)), body, exit)

	b.SetBlock(body)
	x := b.Load(b.Add(b.Param(2), b.Tid()), 0)
	yAddr := b.Add(b.Param(3), b.Tid())
	y := b.Load(yAddr, 0)
	b.Store(yAddr, 0, b.FAdd(b.FMul(b.Param(1), x), y))
	b.Jump(exit)

	b.SetBlock(exit)
	b.Ret()
	kernel := b.MustBuild()

	// x[i] = i, y[i] = 1; compute y = 0.5*x + y for n elements.
	const n = 4096
	global := make([]uint32, 2*n)
	for i := 0; i < n; i++ {
		global[i] = vgiw.F32(float32(i))
		global[n+i] = vgiw.F32(1)
	}
	res, err := vgiw.RunVGIW(kernel, vgiw.Launch1D(n/128, 128, n, vgiw.F32(0.5), 0, n), global, nil)
	if err != nil {
		panic(err)
	}
	for _, i := range []int{0, 1, 1000, n - 1} {
		fmt.Printf("y[%d] = %g\n", i, vgiw.AsF32(global[n+i]))
	}
	fmt.Printf("%d threads: %d block schedules, %d reconfigurations\n",
		res.Threads, len(res.BlockRuns), res.Reconfigs)
	fmt.Printf("LVC: %d loads, %d stores\n", res.LVCLoads, res.LVCStores)
	fmt.Printf("CVT: %d reads, %d writes\n", res.CVTReads, res.CVTWrites)
	fmt.Printf("replicas per block: %v\n", res.ReplicasOf)
	// Output:
	// y[0] = 1
	// y[1] = 1.5
	// y[1000] = 501
	// y[4095] = 2048.5
	// 4096 threads: 2 block schedules, 2 reconfigurations
	// LVC: 0 loads, 0 stores
	// CVT: 192 reads, 8256 writes
	// replicas per block: map[0:8 1:3 2:8]
}

//go:embed examples/kasm/kernel.kasm
var absdiffKasm string

// Example_kasm loads a hand-written kernel from its textual assembly
// (examples/kasm/kernel.kasm), runs it on the VGIW machine, checks every
// output, and prints the kernel back in the same format.
func Example_kasm() {
	kernel, err := vgiw.ParseKasm(absdiffKasm)
	if err != nil {
		panic(err)
	}
	fmt.Printf("kernel %s: %d blocks, %d instructions\n", kernel.Name, len(kernel.Blocks), kernel.NumInstrs())

	// out[i] = |a[i] - b[i]| with a[i] = i/4 and b[i] = (n-i)/4.
	const n = 2048
	global := make([]uint32, 3*n)
	for i := 0; i < n; i++ {
		global[i] = vgiw.F32(float32(i) * 0.25)
		global[n+i] = vgiw.F32(float32(n-i) * 0.25)
	}
	res, err := vgiw.RunVGIW(kernel, vgiw.Launch1D(n/128, 128, n, 0, n, 2*n), global, nil)
	if err != nil {
		panic(err)
	}
	wrong := 0
	for i := 0; i < n; i++ {
		a, b := float32(i)*0.25, float32(n-i)*0.25
		if global[2*n+i] != vgiw.F32(float32(math.Abs(float64(a-b)))) {
			wrong++
		}
	}
	fmt.Printf("%d of %d outputs wrong\n", wrong, n)
	fmt.Printf("%d block schedules, %d reconfigurations, LVC %d loads / %d stores, CVT %d reads / %d writes\n",
		len(res.BlockRuns), res.Reconfigs, res.LVCLoads, res.LVCStores, res.CVTReads, res.CVTWrites)
	fmt.Print(vgiw.PrintKasm(kernel))
	// Output:
	// kernel absdiff: 3 blocks, 15 instructions
	// 0 of 2048 outputs wrong
	// 2 block schedules, 2 reconfigurations, LVC 0 loads / 0 stores, CVT 96 reads / 4128 writes
	// kernel absdiff params=4 shared=0
	// @0 entry:
	//   r0 = tid
	//   r1 = param 0
	//   r2 = setlt r0 r1
	//   br r2 @1 @2
	// @1 body:
	//   r3 = tid
	//   r4 = param 1
	//   r5 = param 2
	//   r6 = param 3
	//   r7 = add r4 r3
	//   r8 = add r5 r3
	//   r9 = ld r7
	//   r10 = ld r8
	//   r11 = fsub r9 r10
	//   r12 = fabs r11
	//   r13 = add r6 r3
	//   st r13 r12
	//   jmp @2
	// @2 exit:
	//   ret
}
