// Package mem models the GPU memory system of §3.6: a banked L1 cache, a
// banked L2, and GDDR5-like DRAM, with configurable write policies (VGIW uses
// write-back + write-allocate L1; the Fermi baseline uses write-through +
// no-allocate). The model is timing + event-counting only: functional data
// lives in a flat word-addressed array owned by the simulators.
package mem

import (
	"fmt"
	"sync"
)

// WritePolicy selects the cache write behaviour.
type WritePolicy uint8

const (
	// WriteBack marks lines dirty and writes them to the next level on
	// eviction; write misses allocate (fetch-on-write).
	WriteBack WritePolicy = iota
	// WriteThrough forwards every write to the next level; write misses do
	// not allocate.
	WriteThrough
)

func (p WritePolicy) String() string {
	if p == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Banks     int
	HitLat    int64 // access latency on a hit, in cycles
	Policy    WritePolicy
	// CombineWrites extends the MSHR-style merge window to stores: writes
	// to one line from several units coalesce into a single bank access
	// (a write-combining buffer). This is the §5 "memory coalescing on
	// MT-CGRFs" future-work extension; off by default to match the paper.
	CombineWrites bool
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Validate checks the configuration is internally consistent.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 || c.Banks <= 0 {
		return fmt.Errorf("mem: cache dimensions must be positive: %+v", c)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("mem: cache size %d not divisible by line*ways", c.SizeBytes)
	}
	if c.Sets() == 0 {
		return fmt.Errorf("mem: cache has zero sets: %+v", c)
	}
	return nil
}

// CacheStats counts cache events.
type CacheStats struct {
	Reads      uint64
	Writes     uint64
	ReadMiss   uint64
	WriteMiss  uint64
	Writebacks uint64 // dirty evictions
	Fills      uint64 // lines brought in
	Combined   uint64 // reads merged with an in-flight same-line access
}

// Accesses is the total number of accesses.
func (s CacheStats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses is the total number of misses.
func (s CacheStats) Misses() uint64 { return s.ReadMiss + s.WriteMiss }

// line is one cache line's bookkeeping.
type line struct {
	tag   int64
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a banked, set-associative cache timing model. It tracks presence
// and dirtiness, not data. Addresses are byte addresses.
type Cache struct {
	cfg CacheConfig
	// lines is a flat slab of sets*ways entries; set s occupies
	// lines[s*ways : (s+1)*ways]. Flat storage keeps the whole directory in
	// one allocation so it can be recycled through linePool across runs.
	lines []line
	banks []SlotAlloc
	// Per-bank recent-access rings, for read combining: concurrent reads of
	// one line (a broadcast — every thread loading the same table entry, or
	// the words of one coalesced-range line arriving from several LDST
	// units) merge into a single bank access, like MSHR merging in a real
	// cache. Each ring is a fixed circular buffer scanned oldest-first —
	// the same order as the shifting slice it replaces, without the
	// per-access memmove.
	recent []combineRing
	tick   uint64
	// sets is the set count; setShift/bankMask are the power-of-two
	// fast-path constants for setOf and bank selection (setShift < 0 /
	// bankMask == 0 when the geometry is not a power of two and the generic
	// divide path must run).
	sets     int64
	setShift int8
	bankMask int64
	Stats    CacheStats
}

type combineEntry struct {
	line  int64
	start int64
}

// combineWindow is how close (in cycles) a read must be to an in-flight
// same-line access to piggyback on it; combineDepth is how many recent
// accesses each bank remembers (MSHR-merge capacity; must stay a power of
// two for the ring index mask).
const (
	combineWindow = 16
	combineDepth  = 8
)

// combineRing is one bank's recent-access window: a fixed-capacity FIFO
// whose entries are scanned oldest-first (insertion order, like the
// reference shifting slice) and which overwrites its oldest entry when full.
type combineRing struct {
	e       [combineDepth]combineEntry
	head, n int8
}

// push appends an entry, displacing the oldest when full.
func (r *combineRing) push(line, start int64) {
	if r.n < combineDepth {
		r.e[(r.head+r.n)&(combineDepth-1)] = combineEntry{line: line, start: start}
		r.n++
		return
	}
	r.e[r.head] = combineEntry{line: line, start: start}
	r.head = (r.head + 1) & (combineDepth - 1)
}

// linePool recycles cache directory slabs across runs. The experiment
// harness builds a fresh memory system per kernel run (tens of thousands of
// lines for the L2 alone); with the parallel harness those runs churn fast
// enough that recycling the slabs measurably cuts allocator pressure.
var linePool = sync.Pool{}

// newLineSlab returns a zeroed slab of n entries, reusing a pooled one when
// it is large enough.
func newLineSlab(n int) []line {
	if v := linePool.Get(); v != nil {
		if s := v.([]line); cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
		// Too small for this geometry; drop it and allocate.
	}
	return make([]line, n)
}

// NewCache builds a cache; the configuration must be valid.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:      cfg,
		lines:    newLineSlab(cfg.Sets() * cfg.Ways),
		banks:    make([]SlotAlloc, cfg.Banks),
		recent:   make([]combineRing, cfg.Banks),
		sets:     int64(cfg.Sets()),
		setShift: pow2Shift(int64(cfg.Sets())),
		bankMask: pow2Mask(int64(cfg.Banks)),
	}
}

// pow2Shift returns log2(n) if n is a positive power of two, else -1.
func pow2Shift(n int64) int8 {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	var s int8
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// pow2Mask returns n-1 if n is a positive power of two, else 0.
func pow2Mask(n int64) int64 {
	if n > 0 && n&(n-1) == 0 {
		return n - 1
	}
	return 0
}

// Release returns the directory slab to the pool. The cache must not be
// accessed afterwards; Stats remain readable.
func (c *Cache) Release() {
	if c.lines != nil {
		linePool.Put(c.lines)
		c.lines = nil
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	Hit       bool
	Ready     int64 // cycle when the bank accepted the request
	Writeback int64 // line address of a dirty eviction, -1 if none
	Evicted   bool  // a valid line was displaced (dirty or not)
}

// Access performs the timing access for one line, selecting the bank by the
// line address. GPU data caches that serve word-granular requests are
// word-interleaved across banks; use AccessBanked for those.
func (c *Cache) Access(lineAddr int64, write bool, now int64) AccessResult {
	return c.AccessBanked(lineAddr, lineAddr, write, now)
}

// AccessBanked performs the timing access for one line with an explicit bank
// selector (callers pass the word address for word-interleaved banking, as
// in the 32-bank L1 the perimeter LDST/LVU units reach over a crossbar). It
// accounts bank contention (each bank accepts one request per cycle) and
// returns whether the line hit, when the bank accepted the request, and
// whether a dirty eviction must be written to the next level. Fill decisions
// follow the write policy; the caller orchestrates the next level.
func (c *Cache) AccessBanked(lineAddr, bankSel int64, write bool, now int64) AccessResult {
	c.tick++
	var bank int
	if c.bankMask != 0 && bankSel >= 0 {
		bank = int(bankSel & c.bankMask)
	} else {
		bank = int(bankSel % int64(c.cfg.Banks))
	}
	set := c.setOf(lineAddr)
	var start int64
	combined := false
	ring := &c.recent[bank]
	if !write || c.cfg.CombineWrites {
		for k := int8(0); k < ring.n; k++ {
			e := &ring.e[(ring.head+k)&(combineDepth-1)]
			if e.line == lineAddr && absDiff(now, e.start) <= combineWindow {
				// Read combining: ride the in-flight access, no bank slot.
				start = e.start
				combined = true
				c.Stats.Combined++
				break
			}
		}
	}
	if !combined {
		start = c.banks[bank].Alloc(now)
		ring.push(lineAddr, start)
	}

	res := AccessResult{Ready: start, Writeback: -1}

	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}

	ways := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			res.Hit = true
			ways[i].lru = c.tick
			if write && c.cfg.Policy == WriteBack {
				ways[i].dirty = true
			}
			return res
		}
	}

	// Miss.
	if write {
		c.Stats.WriteMiss++
		if c.cfg.Policy == WriteThrough {
			// no-allocate: the write just goes to the next level.
			return res
		}
	} else {
		c.Stats.ReadMiss++
	}

	// Allocate: pick the LRU victim.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	v := &ways[victim]
	if v.valid {
		res.Evicted = true
		if v.dirty {
			c.Stats.Writebacks++
			res.Writeback = v.tag
		}
	}
	c.Stats.Fills++
	*v = line{tag: lineAddr, valid: true, dirty: write && c.cfg.Policy == WriteBack, lru: c.tick}
	return res
}

// setOf maps a line to its set (see setIndex). Tags store the full line
// address.
func (c *Cache) setOf(lineAddr int64) int { return setIndex(lineAddr, c.sets, c.setShift) }

// setIndex maps a line to one of sets sets with hashed indexing (upper
// address bits XORed into the index), dissolving the power-of-two stride
// aliasing that plain modulo indexing suffers on struct-of-arrays layouts.
// GPU L1/L2 caches hash their set index the same way. shift is
// pow2Shift(sets).
func setIndex(lineAddr, sets int64, shift int8) int {
	if shift > 0 && lineAddr >= 0 {
		// Power-of-two set count: shifts and a mask compute the identical
		// hash (for non-negative addresses, /2^k == >>k and %2^k == &mask).
		h := lineAddr ^ (lineAddr >> shift) ^ (lineAddr >> (2 * shift))
		return int(h & (int64(1)<<shift - 1))
	}
	h := lineAddr ^ (lineAddr / sets) ^ (lineAddr / (sets * sets))
	h %= sets
	if h < 0 {
		h += sets
	}
	return int(h)
}

// ConflictFree reports whether a valid cache holds lines [0, n) without
// evicting: under the set index a Cache uses, no set receives more than Ways
// of them. A cache that only ever touches those lines then never evicts, so
// it behaves exactly as a larger cache with the same banks, line size,
// latency and policy would. It reports false for an invalid configuration.
// The scan stops at the first overfull set, within Sets×Ways+1 lines.
func (c CacheConfig) ConflictFree(n int64) bool {
	if n <= 0 {
		return true
	}
	if c.Validate() != nil {
		return false
	}
	sets := int64(c.Sets())
	shift := pow2Shift(sets)
	load := make([]int, sets)
	for l := int64(0); l < n; l++ {
		s := setIndex(l, sets, shift)
		if load[s]++; load[s] > c.Ways {
			return false
		}
	}
	return true
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Contains reports whether the line is present (no state change); used by
// tests.
func (c *Cache) Contains(lineAddr int64) bool {
	set := c.setOf(lineAddr)
	for _, l := range c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways] {
		if l.valid && l.tag == lineAddr {
			return true
		}
	}
	return false
}
