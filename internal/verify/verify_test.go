package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"vgiw/internal/kasm"
	"vgiw/internal/kir"
	"vgiw/internal/verify"
)

func TestDiagnosticError(t *testing.T) {
	d := verify.Diagnostic{
		Pass: "remat", Kernel: "k", Block: 2, Op: 3,
		Pos: kir.Pos{Line: 14, Col: 3}, Msg: "r7 used before definition",
	}
	got := d.Error()
	for _, want := range []string{"[remat]", "kernel k", "block 2", "instr 3", "line 14:3", "r7 used before definition"} {
		if !strings.Contains(got, want) {
			t.Errorf("Error() = %q, missing %q", got, want)
		}
	}

	// Kernel-wide finding: no block/instr/pos fragments.
	whole := verify.Diagnostic{Pass: "launch", Kernel: "k", Block: -1, Op: -1, Msg: "m"}
	if got := whole.Error(); strings.Contains(got, "block") || strings.Contains(got, "instr") {
		t.Errorf("kernel-wide Error() = %q mentions block/instr", got)
	}
}

func TestJoinAndDiagnostics(t *testing.T) {
	if verify.Join(nil) != nil {
		t.Error("Join(nil) != nil")
	}
	ds := []verify.Diagnostic{
		{Pass: "a", Block: -1, Op: -1, Msg: "one"},
		{Pass: "b", Block: 0, Op: 1, Msg: "two"},
	}
	err := verify.Join(ds)
	if err == nil {
		t.Fatal("Join of two diagnostics is nil")
	}
	// Diagnostics must survive further wrapping, as compile does with %w.
	wrapped := fmt.Errorf("compile: pass a: %w", err)
	got := verify.Diagnostics(wrapped)
	if len(got) != 2 || got[0] != ds[0] || got[1] != ds[1] {
		t.Errorf("Diagnostics(wrapped) = %v, want %v", got, ds)
	}
	if verify.Diagnostics(fmt.Errorf("plain")) != nil {
		t.Error("Diagnostics of a plain error is non-nil")
	}
}

// TestStructuralDiagnosticsAreKirFindings checks that the verifier reports
// exactly kir's structural findings: one diagnostic per finding, in order,
// with its block, instruction, source position and message. The kernels
// start from parsed kasm, so instruction and terminator findings carry
// their source lines.
func TestStructuralDiagnosticsAreKirFindings(t *testing.T) {
	const src = `kernel k params=1 shared=4
@0 entry:
  r0 = tid
  r1 = param 0
  r2 = setlt r0 r1
  br r2 @1 @2
@1 body:
  st r1 r0
  jmp @2
@2 exit:
  ret
`
	cases := []struct {
		name    string
		breakIt func(k *kir.Kernel)
		want    int // findings
	}{
		{"negative shared size", func(k *kir.Kernel) { k.SharedWds = -4 }, 1},
		{"negative register count", func(k *kir.Kernel) { k.NumRegs = -1 }, 9},
		{"jump target out of range", func(k *kir.Kernel) { k.Blocks[1].Term.Then = 7 }, 1},
		{"branch targets out of range", func(k *kir.Kernel) { k.Blocks[0].Term.Then, k.Blocks[0].Term.Else = -1, 9 }, 2},
		{"parameter and source out of range", func(k *kir.Kernel) {
			k.Blocks[0].Instrs[1].Imm = 3
			k.Blocks[1].Instrs[0].Src[1] = 40
		}, 2},
		{"barrier on the entry block", func(k *kir.Kernel) { k.Blocks[0].Barrier = true }, 1},
		{"invalid opcode and terminator", func(k *kir.Kernel) {
			k.Blocks[0].Instrs[0].Op = kir.OpNop
			k.Blocks[2].Term.Kind = 9
		}, 2},
		{"no blocks", func(k *kir.Kernel) { k.Blocks = nil }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, err := kasm.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			tc.breakIt(k)
			var fs []kir.Finding
			k.Check(func(f kir.Finding) { fs = append(fs, f) })
			if len(fs) != tc.want {
				t.Fatalf("kir reports %d findings, want %d: %+v", len(fs), tc.want, fs)
			}
			ds := verify.Kernel("input", k, verify.Source)
			if len(ds) != len(fs) {
				t.Fatalf("%d diagnostics for %d kir findings:\n%s", len(ds), len(fs), joinDiags(ds))
			}
			for i, f := range fs {
				want := verify.Diagnostic{Pass: "input", Kernel: "k", Block: f.Block, Op: f.Instr, Pos: f.Pos, Msg: f.Msg}
				if ds[i] != want {
					t.Errorf("diagnostic %d = %+v, want %+v", i, ds[i], want)
				}
				if f.Block >= 0 && f.Pos.IsZero() {
					t.Errorf("finding %+v has no source position", f)
				}
			}
		})
	}
}
