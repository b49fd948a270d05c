package vgiw_test

import (
	"fmt"
	"testing"

	"vgiw"
)

// TestMalformedInputSameError runs malformed kernels and launches, built
// through the public builder and struct fields, through the interpreter and
// all three machines. Each entry point must return the error of the one
// kir check (Kernel.Validate or Kernel.ValidateLaunch) and none may panic.
func TestMalformedInputSameError(t *testing.T) {
	// guarded is a one-diamond saxpy: SGMF-mappable, so every machine
	// reaches its own input checks.
	guarded := func(shared int) *vgiw.Builder {
		b := vgiw.NewKernelBuilder("guarded")
		b.SetParams(2) // n, base
		b.SetShared(shared)
		entry, body, exit := b.NewBlock("entry"), b.NewBlock("body"), b.NewBlock("exit")
		b.SetBlock(entry)
		b.Branch(b.SetLT(b.Tid(), b.Param(0)), body, exit)
		b.SetBlock(body)
		addr := b.Add(b.Param(1), b.Tid())
		b.Store(addr, 0, b.FMul(b.Load(addr, 0), b.ConstF(2)))
		b.Jump(exit)
		b.SetBlock(exit)
		b.Ret()
		return b
	}
	valid := func() *vgiw.Kernel { return guarded(0).MustBuild() }
	// empty uses no register, so a negative register count is its only fault.
	empty := func() *vgiw.Kernel {
		b := vgiw.NewKernelBuilder("empty")
		b.SetBlock(b.NewBlock("entry"))
		b.Ret()
		return b.MustBuild()
	}

	cases := []struct {
		name    string
		kernel  func() *vgiw.Kernel
		breakIt func(k *vgiw.Kernel, l *vgiw.Launch)
	}{
		{"SetShared(-4)", valid,
			func(k *vgiw.Kernel, _ *vgiw.Launch) { k.SharedWds = -4 }},
		{"NumRegs=-1", empty,
			func(k *vgiw.Kernel, _ *vgiw.Launch) { k.NumRegs = -1 }},
		{"jump target out of range", valid,
			func(k *vgiw.Kernel, _ *vgiw.Launch) { k.Blocks[1].Term.Then = 7 }},
		{"branch target out of range", valid,
			func(k *vgiw.Kernel, _ *vgiw.Launch) { k.Blocks[0].Term.Else = -1 }},
		{"zero grid dimension", valid,
			func(_ *vgiw.Kernel, l *vgiw.Launch) { l.GridX = 0 }},
		{"zero block dimension", valid,
			func(_ *vgiw.Kernel, l *vgiw.Launch) { l.BlockX = 0 }},
		{"parameter count mismatch", valid,
			func(_ *vgiw.Kernel, l *vgiw.Launch) { l.Params = l.Params[:1] }},
	}
	entries := []struct {
		name string
		run  func(k *vgiw.Kernel, l vgiw.Launch, global []uint32) error
	}{
		{"Interpret", vgiw.Interpret},
		{"RunVGIW", func(k *vgiw.Kernel, l vgiw.Launch, g []uint32) error {
			_, err := vgiw.RunVGIW(k, l, g, nil)
			return err
		}},
		{"RunSIMT", func(k *vgiw.Kernel, l vgiw.Launch, g []uint32) error {
			_, err := vgiw.RunSIMT(k, l, g, nil)
			return err
		}},
		{"RunSGMF", func(k *vgiw.Kernel, l vgiw.Launch, g []uint32) error {
			_, err := vgiw.RunSGMF(k, l, g, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// mk returns a fresh broken input: the machines schedule
			// kernels in place, so no run may see another's leftovers.
			mk := func() (*vgiw.Kernel, vgiw.Launch) {
				k, l := tc.kernel(), vgiw.Launch1D(1, 32, 16, 0)
				l.Params = l.Params[:k.NumParams]
				tc.breakIt(k, &l)
				return k, l
			}
			k, l := mk()
			want := k.Validate()
			if want == nil {
				want = k.ValidateLaunch(l)
			}
			if want == nil {
				t.Fatal("the kir checks accept the broken input")
			}
			for _, e := range entries {
				k, l := mk()
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return e.run(k, l, make([]uint32, 64))
				}()
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s: error %v, want %q", e.name, err, want)
				}
			}
		})
	}

	// The builder runs the same check, so a negative shared size never
	// leaves Build.
	k := valid()
	k.SharedWds = -4
	if _, err := guarded(-4).Build(); err == nil || err.Error() != k.Validate().Error() {
		t.Errorf("Build with SetShared(-4): error %v, want %v", err, k.Validate())
	}
}
