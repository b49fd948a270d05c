package mem

import (
	"fmt"

	"vgiw/internal/trace"
)

// DRAMConfig sizes the GDDR5-like main memory model.
type DRAMConfig struct {
	Channels  int
	Banks     int   // banks per channel
	AccessLat int64 // access latency in core cycles
	BusyCyc   int64 // per-access bank occupancy (burst time)
}

// Validate checks the configuration.
func (d DRAMConfig) Validate() error {
	if d.Channels <= 0 || d.Banks <= 0 || d.AccessLat <= 0 || d.BusyCyc <= 0 {
		return fmt.Errorf("mem: DRAM config must be positive: %+v", d)
	}
	return nil
}

// DRAMStats counts DRAM events.
type DRAMStats struct {
	Reads  uint64
	Writes uint64
}

// Accesses is the total access count.
func (s DRAMStats) Accesses() uint64 { return s.Reads + s.Writes }

// DRAM models channel/bank occupancy with a fixed access latency.
type DRAM struct {
	cfg   DRAMConfig
	banks []SlotAlloc
	Stats DRAMStats
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DRAM{cfg: cfg, banks: make([]SlotAlloc, cfg.Channels*cfg.Banks)}
}

// Access returns the completion cycle of one line access.
func (d *DRAM) Access(lineAddr int64, write bool, now int64) int64 {
	if write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
	}
	bank := int(lineAddr % int64(len(d.banks)))
	// Occupy BusyCyc consecutive cycles on the bank.
	start := d.banks[bank].Alloc(now)
	for i := int64(1); i < d.cfg.BusyCyc; i++ {
		d.banks[bank].Alloc(start + i)
	}
	return start + d.cfg.AccessLat
}

// Config bundles the whole memory-system configuration.
type Config struct {
	L1   CacheConfig
	L2   CacheConfig
	DRAM DRAMConfig
	// L1MSHRs bounds outstanding L1 read misses (miss-status holding
	// registers). GPGPU-Sim's GTX480 L1 has 32.
	L1MSHRs int
	// WordBytes is the access granularity (4 for this ISA).
	WordBytes int
	// SharedBanks is the number of scratchpad banks (shared-memory
	// accesses are 1-cycle plus bank conflicts).
	SharedBanks int
	// SharedLat is the scratchpad access latency.
	SharedLat int64
}

// DefaultConfig mirrors Table 1 / §3.6: 64KB 32-bank 4-way L1 with 128B
// lines, 768KB 6-bank 16-way L2, 16-bank 6-channel DRAM. The write policy
// of the L1/L2 is chosen per architecture (write-back for VGIW, write-through
// L1 for Fermi).
func DefaultConfig(policy WritePolicy) Config {
	return Config{
		L1: CacheConfig{
			SizeBytes: 64 << 10, LineBytes: 128, Ways: 4, Banks: 32,
			HitLat: 24, Policy: policy,
		},
		L2: CacheConfig{
			SizeBytes: 768 << 10, LineBytes: 128, Ways: 16, Banks: 6,
			// L2 runs at half the core clock (Table 1); latency in core cycles.
			HitLat: 90, Policy: WriteBack,
		},
		DRAM:        DRAMConfig{Channels: 6, Banks: 16, AccessLat: 220, BusyCyc: 4},
		L1MSHRs:     32,
		WordBytes:   4,
		SharedBanks: 32,
		SharedLat:   2,
	}
}

// SystemStats aggregates the per-level statistics.
type SystemStats struct {
	L1   CacheStats
	L2   CacheStats
	DRAM DRAMStats
}

// EmitCounters emits the cumulative counters as the l1, l2 and dram counter
// events on a machine's memory track at cycle ts. Every machine samples its
// memory system through it, so the three traces share one counter schema.
func (s SystemStats) EmitCounters(sink *trace.Sink, track trace.TrackID, ts int64) {
	sink.Emit(trace.Event{Name: "l1", Cat: trace.CatMem, Phase: trace.PhaseCounter, Track: track, Ts: ts,
		K1: "accesses", V1: int64(s.L1.Accesses()), K2: "misses", V2: int64(s.L1.Misses())})
	sink.Emit(trace.Event{Name: "l2", Cat: trace.CatMem, Phase: trace.PhaseCounter, Track: track, Ts: ts,
		K1: "accesses", V1: int64(s.L2.Accesses()), K2: "misses", V2: int64(s.L2.Misses())})
	sink.Emit(trace.Event{Name: "dram", Cat: trace.CatMem, Phase: trace.PhaseCounter, Track: track, Ts: ts,
		K1: "reads", V1: int64(s.DRAM.Reads), K2: "writes", V2: int64(s.DRAM.Writes)})
}

// System is one core's view of the memory hierarchy: a private L1 backed by
// the shared L2 and DRAM. All addresses passed in are *word* addresses.
type System struct {
	cfg         Config
	L1          *Cache
	L2          *Cache
	DRAM        *DRAM
	mshrs       *Outstanding
	sharedBanks []SlotAlloc
	// lineShift is the power-of-two fast path for word→line address
	// translation in AccessWord (negative when the geometry is not a power
	// of two and the generic multiply/divide must run).
	lineShift int8
}

// NewSystem builds a memory system from the configuration.
func NewSystem(cfg Config) *System {
	if cfg.WordBytes <= 0 {
		cfg.WordBytes = 4
	}
	if cfg.SharedBanks <= 0 {
		cfg.SharedBanks = 32
	}
	if cfg.SharedLat <= 0 {
		cfg.SharedLat = 1
	}
	if cfg.L1MSHRs <= 0 {
		cfg.L1MSHRs = 32
	}
	lineShift := int8(-1)
	if cfg.L1.LineBytes%cfg.WordBytes == 0 {
		lineShift = pow2Shift(int64(cfg.L1.LineBytes / cfg.WordBytes))
	}
	return &System{
		cfg:         cfg,
		L1:          NewCache(cfg.L1),
		L2:          NewCache(cfg.L2),
		DRAM:        NewDRAM(cfg.DRAM),
		mshrs:       NewOutstanding(cfg.L1MSHRs),
		sharedBanks: make([]SlotAlloc, cfg.SharedBanks),
		lineShift:   lineShift,
	}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Stats snapshots the event counters.
func (s *System) Stats() SystemStats {
	return SystemStats{L1: s.L1.Stats, L2: s.L2.Stats, DRAM: s.DRAM.Stats}
}

// Release returns the cache directories and every bank's slot ring to their
// pools. Call once a run is finished and its Stats have been snapshotted;
// the system must not be accessed afterwards.
func (s *System) Release() {
	s.L1.Release()
	s.L2.Release()
	releaseSlots(s.DRAM.banks)
	releaseSlots(s.sharedBanks)
}

// AccessWord performs a global-memory access for one word and returns its
// completion cycle. Write-through L1s forward writes to the L2 immediately;
// write-back L1s absorb them and emit writebacks on eviction.
func (s *System) AccessWord(wordAddr int64, write bool, now int64) int64 {
	var lineAddr int64
	if s.lineShift >= 0 && wordAddr >= 0 {
		lineAddr = wordAddr >> s.lineShift
	} else {
		lineAddr = (wordAddr * int64(s.cfg.WordBytes)) / int64(s.cfg.L1.LineBytes)
	}
	// Word-interleaved banking: word-granular requests from different
	// units to the same line land on different banks.
	return s.access(lineAddr, wordAddr, write, now)
}

// AccessLine performs a global-memory access at line granularity (the SIMT
// baseline coalesces a warp's accesses into line transactions).
func (s *System) AccessLine(lineAddr int64, write bool, now int64) int64 {
	return s.access(lineAddr, lineAddr, write, now)
}

func (s *System) access(lineAddr, bankSel int64, write bool, now int64) int64 {
	r1 := s.L1.AccessBanked(lineAddr, bankSel, write, now)
	done := r1.Ready + s.cfg.L1.HitLat
	if r1.Writeback >= 0 {
		// Dirty eviction goes to L2 off the critical path.
		s.accessL2(r1.Writeback, true, r1.Ready)
	}
	if r1.Hit {
		return done
	}
	if write {
		// Stores are acknowledged once the L1 accepts them: a store buffer
		// hides the fill (write-back allocate) or forward (write-through)
		// latency. The downstream traffic still happens for stats/banking.
		if s.cfg.L1.Policy == WriteThrough {
			s.accessL2(lineAddr, true, r1.Ready)
			return r1.Ready + 1
		}
		s.accessL2(lineAddr, false, r1.Ready) // fetch-on-write, off the critical path
		return done
	}
	// Load miss: allocate an MSHR and fetch the line from L2/DRAM.
	start := s.mshrs.Admit(r1.Ready)
	done = s.accessL2(lineAddr, false, start) + s.cfg.L1.HitLat
	s.mshrs.Record(done)
	return done
}

// accessL2 is the L2+DRAM leg, also used directly by the live value cache
// (the LVC is backed by the L2, §3.4).
func (s *System) accessL2(lineAddr int64, write bool, now int64) int64 {
	r2 := s.L2.Access(lineAddr, write, now)
	done := r2.Ready + s.cfg.L2.HitLat
	if r2.Writeback >= 0 {
		s.DRAM.Access(r2.Writeback, true, r2.Ready)
	}
	if r2.Hit {
		return done
	}
	if write && s.cfg.L2.Policy == WriteThrough {
		return s.DRAM.Access(lineAddr, true, r2.Ready)
	}
	return s.DRAM.Access(lineAddr, false, r2.Ready) + s.cfg.L2.HitLat
}

// AccessViaL2 lets a core-side structure backed by the L2 (the LVC) spill or
// fill a line, bypassing the L1.
func (s *System) AccessViaL2(lineAddr int64, write bool, now int64) int64 {
	return s.accessL2(lineAddr, write, now)
}

// AccessShared performs a scratchpad access: fixed latency plus bank
// conflicts (one request per bank per cycle).
func (s *System) AccessShared(wordAddr int64, now int64) int64 {
	bank := int(wordAddr % int64(len(s.sharedBanks)))
	return s.sharedBanks[bank].Alloc(now) + s.cfg.SharedLat
}
