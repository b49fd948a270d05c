package core

import (
	"math/bits"

	"vgiw/internal/mem"
	"vgiw/internal/trace"
)

// LVC is the live value cache (§3.4): a banked cache over the memory-resident
// live-value matrix, which is indexed by (live value ID, thread ID) and
// backed by the L2. Functional storage is the matrix itself; the embedded
// cache provides timing and spill traffic.
type LVC struct {
	cache   *mem.Cache
	sys     *mem.System
	matrix  [][]uint32 // [liveValueID][threadID]
	threads int

	// The cache geometry Access needs, resolved once: lineShift is the log2
	// of lineBytes, or -1 when the line is not a power of two and Access
	// must divide.
	lineBytes int64
	lineShift int
	hitLat    int64

	sink  *trace.Sink
	track trace.TrackID

	Loads  uint64
	Stores uint64
}

// SetTrace routes per-access hit/miss/spill events (trace.CatLVC) to a sink
// track. A nil sink (the default) keeps Access allocation-free.
func (l *LVC) SetTrace(s *trace.Sink, track trace.TrackID) {
	l.sink, l.track = s, track
}

// DefaultLVCConfig is the evaluated 64KB LVC (§3.4): banked like a GPGPU L1,
// backed by the L2.
func DefaultLVCConfig() mem.CacheConfig {
	return mem.CacheConfig{
		SizeBytes: 64 << 10, LineBytes: 128, Ways: 4, Banks: 8,
		HitLat: 4, Policy: mem.WriteBack,
	}
}

// NewLVC sizes the live-value matrix for numLVs live values across
// `threads` concurrently tracked threads (one tile).
func NewLVC(cfg mem.CacheConfig, sys *mem.System, numLVs, threads int) *LVC {
	matrix := make([][]uint32, numLVs)
	for i := range matrix {
		matrix[i] = make([]uint32, threads)
	}
	l := &LVC{cache: NewLVCache(cfg), sys: sys, matrix: matrix, threads: threads,
		lineBytes: int64(cfg.LineBytes), lineShift: -1, hitLat: cfg.HitLat}
	if lb := cfg.LineBytes; lb > 0 && lb&(lb-1) == 0 {
		l.lineShift = bits.TrailingZeros(uint(lb))
	}
	return l
}

// NewLVCache builds the cache component (exposed for tests).
func NewLVCache(cfg mem.CacheConfig) *mem.Cache { return mem.NewCache(cfg) }

// Reset zeroes the matrix between tiles (live values do not cross tiles:
// each tile runs the kernel start to finish for its threads).
func (l *LVC) Reset() {
	for i := range l.matrix {
		for j := range l.matrix[i] {
			l.matrix[i][j] = 0
		}
	}
}

// Access reads or writes live value lv for tile-relative thread tid.
// Timing: LVC bank access on a hit; L2 fill on a miss; dirty evictions spill
// to the L2 (§3.4: "allows live values to be spilled to memory").
//
//vgiw:hotpath
func (l *LVC) Access(lv, tid int, write bool, value uint32, now int64) (uint32, int64) {
	if write {
		l.Stores++
	} else {
		l.Loads++
	}
	// Byte address inside the live-value matrix; banks are word-interleaved
	// so the 16 LVUs reach distinct banks in parallel (§3.4: "accessed at
	// word granularity, in contrast to a GPGPU's vector register file").
	word := int64(lv)*int64(l.threads) + int64(tid)
	var lineAddr int64
	if l.lineShift >= 0 {
		lineAddr = word * 4 >> l.lineShift // word is never negative
	} else {
		lineAddr = word * 4 / l.lineBytes
	}
	res := l.cache.AccessBanked(lineAddr, word, write, now)
	done := res.Ready + l.hitLat
	if res.Writeback >= 0 {
		l.sys.AccessViaL2(res.Writeback, true, res.Ready)
	}
	if !res.Hit {
		done = l.sys.AccessViaL2(lineAddr, false, res.Ready) + l.hitLat
	}
	if l.sink.Enabled(trace.CatLVC) {
		name := "lvc.hit"
		if !res.Hit {
			name = "lvc.miss"
		}
		l.sink.Emit(trace.Event{Name: name, Cat: trace.CatLVC, Phase: trace.PhaseInstant,
			Track: l.track, Ts: now, K1: "lv", V1: int64(lv), K2: "tid", V2: int64(tid)})
		if res.Writeback >= 0 {
			l.sink.Emit(trace.Event{Name: "lvc.spill", Cat: trace.CatLVC, Phase: trace.PhaseInstant,
				Track: l.track, Ts: res.Ready, K1: "line", V1: res.Writeback})
		}
	}

	out := uint32(0)
	if write {
		l.matrix[lv][tid] = value
	} else {
		out = l.matrix[lv][tid]
	}
	return out, done
}

// AccessFast is the functional twin of Access for the engine's fast mode:
// identical matrix effects and Loads/Stores counters, no cache, spill or
// trace activity.
func (l *LVC) AccessFast(lv, tid int, write bool, value uint32) uint32 {
	if write {
		l.Stores++
		l.matrix[lv][tid] = value
		return 0
	}
	l.Loads++
	return l.matrix[lv][tid]
}

// Stats returns the cache-level statistics.
func (l *LVC) Stats() mem.CacheStats { return l.cache.Stats }

// Release returns the embedded cache's directory to the slab pool; the LVC
// must not be accessed afterwards (Stats snapshots stay valid).
func (l *LVC) Release() { l.cache.Release() }
