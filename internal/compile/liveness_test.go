package compile

import (
	"reflect"
	"testing"

	"vgiw/internal/kasm"
	"vgiw/internal/kir"
)

// wordEdgeLoop is a loop whose cross-block registers sit on both sides of
// 64-bit word boundaries: r0 and r63 close the first word, r64 opens the
// second, r127 closes it and r128, the kernel's last register, is alone in
// the third.
const wordEdgeLoop = `
kernel edges params=0 shared=0
@0 entry:
  r0 = tid
  r63 = ld r0
  r64 = add r0 r63
  r128 = mul r63 r63
  jmp @1
@1 loop:
  r127 = add r64 r63
  r64 = add r127 r0
  r1 = setlt r64 r128
  br r1 @1 @2
@2 exit:
  r2 = add r127 r128
  st r0 r2
  ret
`

// wordEdge64 has exactly 64 registers, so its sets fill one word.
const wordEdge64 = `
kernel edge64 params=0 shared=0
@0 entry:
  r0 = tid
  r63 = ld r0
  r1 = setlt r0 r63
  br r1 @1 @2
@1 then:
  r63 = add r63 r0
  jmp @2
@2 exit:
  st r0 r63
  ret
`

func parseKernel(t *testing.T, src string) *kir.Kernel {
	t.Helper()
	k, err := kasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// members lists a register set in ascending order.
func members(set RegSet) []kir.Reg {
	rs := []kir.Reg{}
	for r := kir.Reg(0); int(r) < 64*len(set); r++ {
		if set.Has(r) {
			rs = append(rs, r)
		}
	}
	return rs
}

// TestLivenessWordEdges checks liveness and live-value allocation on
// registers at 64-bit word boundaries against hand-derived sets.
func TestLivenessWordEdges(t *testing.T) {
	type flow struct{ up, def, in, out []kir.Reg }
	for _, tc := range []struct {
		src     string
		numRegs int
		flows   []flow
		loads   [][]kir.Reg
		stores  [][]kir.Reg
		ids     map[kir.Reg]int
	}{{
		src:     wordEdgeLoop,
		numRegs: 129,
		flows: []flow{
			{up: []kir.Reg{}, def: []kir.Reg{0, 63, 64, 128}, in: []kir.Reg{}, out: []kir.Reg{0, 63, 64, 128}},
			{up: []kir.Reg{0, 63, 64, 128}, def: []kir.Reg{1, 64, 127}, in: []kir.Reg{0, 63, 64, 128}, out: []kir.Reg{0, 63, 64, 127, 128}},
			{up: []kir.Reg{0, 127, 128}, def: []kir.Reg{2}, in: []kir.Reg{0, 127, 128}, out: []kir.Reg{}},
		},
		loads:  [][]kir.Reg{nil, {0, 63, 64, 128}, {0, 127, 128}},
		stores: [][]kir.Reg{{0, 63, 64, 128}, {64, 127}, nil},
		// Block order, then register order: r128 is stored by the entry
		// block, r127 first by the loop.
		ids: map[kir.Reg]int{0: 0, 63: 1, 64: 2, 128: 3, 127: 4},
	}, {
		src:     wordEdge64,
		numRegs: 64,
		flows: []flow{
			{up: []kir.Reg{}, def: []kir.Reg{0, 1, 63}, in: []kir.Reg{}, out: []kir.Reg{0, 63}},
			{up: []kir.Reg{0, 63}, def: []kir.Reg{63}, in: []kir.Reg{0, 63}, out: []kir.Reg{0, 63}},
			{up: []kir.Reg{0, 63}, def: []kir.Reg{}, in: []kir.Reg{0, 63}, out: []kir.Reg{}},
		},
		loads:  [][]kir.Reg{nil, {0, 63}, {0, 63}},
		stores: [][]kir.Reg{{0, 63}, {63}, nil},
		ids:    map[kir.Reg]int{0: 0, 63: 1},
	}} {
		k := parseKernel(t, tc.src)
		if k.NumRegs != tc.numRegs {
			t.Fatalf("%s: %d registers, want %d", k.Name, k.NumRegs, tc.numRegs)
		}
		for bi, f := range Liveness(k) {
			got := flow{members(f.UpwardUse), members(f.Def), members(f.LiveIn), members(f.LiveOut)}
			if !reflect.DeepEqual(got, tc.flows[bi]) {
				t.Errorf("%s block %d: flow %+v, want %+v", k.Name, bi, got, tc.flows[bi])
			}
		}
		lv := AllocateLiveValues(k)
		if !reflect.DeepEqual(lv.Loads, tc.loads) || !reflect.DeepEqual(lv.Stores, tc.stores) {
			t.Errorf("%s: loads %v stores %v, want %v and %v", k.Name, lv.Loads, lv.Stores, tc.loads, tc.stores)
		}
		if lv.NumIDs != len(tc.ids) {
			t.Errorf("%s: %d live-value IDs, want %d", k.Name, lv.NumIDs, len(tc.ids))
		}
		for r := kir.Reg(0); int(r) < k.NumRegs; r++ {
			want, ok := tc.ids[r]
			if !ok {
				want = -1
			}
			if got := lv.IDOf[r]; got != want {
				t.Errorf("%s: r%d has live-value ID %d, want %d", k.Name, r, got, want)
			}
		}
		if ds := VerifyLiveValues("test", k, lv); len(ds) != 0 {
			t.Errorf("%s: %v", k.Name, ds)
		}
	}
}

// TestRematerializeWordEdges rematerializes constants, a parameter and
// geometry registers at word boundaries into two blocks: each block gets its
// own fresh registers, numbered in source-register order, and a register
// defined twice stays live.
func TestRematerializeWordEdges(t *testing.T) {
	k := parseKernel(t, `
kernel remat params=1 shared=0
@0 entry:
  r0 = tid
  r63 = const 7
  r64 = param 0
  r127 = ntidx
  r128 = const 9
  r65 = const 1
  r65 = add r65 r0
  jmp @1
@1 first:
  r1 = add r0 r63
  r2 = add r64 r127
  st r2 r1
  jmp @2
@2 second:
  r3 = add r128 r63
  r4 = add r3 r65
  st r64 r4 +1
  ret
`)
	Rematerialize(k)
	want := `kernel remat params=1 shared=0
@0 entry:
  r0 = tid
  r63 = const 7
  r64 = param 0
  r127 = ntidx
  r128 = const 9
  r65 = const 1
  r65 = add r65 r0
  jmp @1
@1 first:
  r129 = tid
  r130 = const 7
  r131 = param 0
  r132 = ntidx
  r1 = add r129 r130
  r2 = add r131 r132
  st r2 r1
  jmp @2
@2 second:
  r133 = const 7
  r134 = param 0
  r135 = const 9
  r3 = add r135 r133
  r4 = add r3 r65
  st r134 r4 +1
  ret
`
	if got := k.String(); got != want {
		t.Errorf("rematerialized kernel:\n%s\nwant:\n%s", got, want)
	}
	if k.NumRegs != 136 {
		t.Errorf("%d registers after rematerialization, want 136", k.NumRegs)
	}
	lv := AllocateLiveValues(k)
	if !reflect.DeepEqual(lv.Stores[0], []kir.Reg{65}) || lv.NumIDs != 1 || lv.IDOf[65] != 0 {
		t.Errorf("only r65 should cross blocks: stores %v, %d IDs", lv.Stores, lv.NumIDs)
	}
}
