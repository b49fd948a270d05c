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

	// The cache geometry Access needs, resolved once.
	lines  lineMap
	hitLat int64

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
	return &LVC{cache: mem.NewCache(cfg), sys: sys, matrix: matrix, threads: threads,
		lines: newLineMap(cfg.LineBytes), hitLat: cfg.HitLat}
}

// lineMap is the live-value matrix's word→line mapping: word w sits at byte
// address 4w. lineShift is the log2 of lineBytes, or -1 when the line is
// not a power of two and line must divide.
type lineMap struct {
	lineBytes int64
	lineShift int
}

func newLineMap(lineBytes int) lineMap {
	m := lineMap{lineBytes: int64(lineBytes), lineShift: -1}
	if lineBytes > 0 && lineBytes&(lineBytes-1) == 0 {
		m.lineShift = bits.TrailingZeros(uint(lineBytes))
	}
	return m
}

// line returns the line holding a (never negative) word.
func (m lineMap) line(word int64) int64 {
	if m.lineShift >= 0 {
		return word * 4 >> m.lineShift
	}
	return word * 4 / m.lineBytes
}

// lvcNeverEvicts reports whether an LVC under cfg, holding numLVs live
// values for a tile of tile threads, can never evict: the lines the
// matrix's words map to are conflict-free under the cache's own set index
// (mem.CacheConfig.ConflictFree). An invalid cfg never qualifies.
func lvcNeverEvicts(cfg mem.CacheConfig, numLVs, tile int) bool {
	if cfg.Validate() != nil {
		return false
	}
	words := int64(numLVs) * int64(tile)
	if words == 0 {
		return true
	}
	return cfg.ConflictFree(newLineMap(cfg.LineBytes).line(words-1) + 1)
}

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
	lineAddr := l.lines.line(word)
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
