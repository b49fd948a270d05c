// Package hotpath is the known-bad corpus for the migrated hotpath pass:
// //vgiw:hotpath functions must not allocate.
package hotpath

import "fmt"

// hotAppend grows a slice on the hot path.
//
//vgiw:hotpath
func hotAppend(xs []int, v int) []int {
	return append(xs, v) //want:hotpath append (may grow and allocate) in //vgiw:hotpath function hotAppend
}

// hotMapLit builds a map literal on the hot path.
//
//vgiw:hotpath
func hotMapLit(k string) map[string]int {
	return map[string]int{k: 1} //want:hotpath map literal in //vgiw:hotpath function hotMapLit
}

// hotMakeMap allocates a map on the hot path.
//
//vgiw:hotpath
func hotMakeMap() map[int]int {
	return make(map[int]int) //want:hotpath make(map) in //vgiw:hotpath function hotMakeMap
}

// hotClosure allocates a closure on the hot path.
//
//vgiw:hotpath
func hotClosure(n int) func() int {
	return func() int { return n } //want:hotpath function literal (closure allocation) in //vgiw:hotpath function hotClosure
}

// hotFmt formats on the hot path.
//
//vgiw:hotpath
func hotFmt(n int) error {
	return fmt.Errorf("bad value %d", n) //want:hotpath fmt.Errorf call (allocates on every call) in //vgiw:hotpath function hotFmt
}

// hotClean pre-sizes a reusable buffer — the allowed pattern: silent.
//
//vgiw:hotpath
func hotClean(xs []int64, n int) []int64 {
	if cap(xs) < n {
		xs = make([]int64, n)
	}
	xs = xs[:n]
	for i := range xs {
		xs[i] = int64(i * i)
	}
	return xs
}

// coldAlloc is unmarked: the same constructs are fine off the hot path.
func coldAlloc(k string) (map[string]int, error) {
	m := map[string]int{k: 1}
	return m, fmt.Errorf("%d entries", len(m))
}
