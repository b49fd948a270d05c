package mem

import (
	"math/rand"
	"testing"
)

// benchStream builds a deterministic mixed load/store address stream. The
// conflict knob picks how many distinct cache lines the stream touches: a
// high-conflict stream hammers a handful of lines (and therefore a handful
// of banks, maximizing bank conflicts), a low-conflict stream
// strides across the whole space so consecutive accesses land on different
// banks.
func benchStream(n int, conflictLines int64, seed int64) (addrs []int64, writes []bool) {
	rng := rand.New(rand.NewSource(seed))
	addrs = make([]int64, n)
	writes = make([]bool, n)
	for i := 0; i < n; i++ {
		if conflictLines > 0 {
			addrs[i] = rng.Int63n(conflictLines) * 16 // 16 words per 64B line
		} else {
			addrs[i] = int64(i) * 17 % 4096
		}
		writes[i] = i%3 == 0
	}
	return addrs, writes
}

func benchConfig(banks int) Config {
	cfg := DefaultConfig(WriteBack)
	cfg.L1.Banks = banks
	return cfg
}

const memBatch = 64

// BenchmarkMemAccessWord is the memory-model microbenchmark: the per-word
// loop behind the engine's memory hook, over low- and high-conflict streams
// at two bank counts.
func BenchmarkMemAccessWord(b *testing.B) {
	for _, bc := range []struct {
		name          string
		banks         int
		conflictLines int64
	}{
		{"banks8/low", 8, 0},
		{"banks8/high", 8, 4},
		{"banks32/low", 32, 0},
		{"banks32/high", 32, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sys := NewSystem(benchConfig(bc.banks))
			addrs, writes := benchStream(memBatch, bc.conflictLines, 42)
			now := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < memBatch; k++ {
					sys.AccessWord(addrs[k], writes[k], now+int64(k))
				}
				now += memBatch
			}
		})
	}
}
