package mem

import (
	"testing"
	"testing/quick"
)

func smallCache(policy WritePolicy) *Cache {
	return NewCache(CacheConfig{
		SizeBytes: 1024, LineBytes: 64, Ways: 2, Banks: 4, HitLat: 4, Policy: policy,
	})
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2, Banks: 4, HitLat: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 8 {
		t.Fatalf("Sets = %d, want 8", good.Sets())
	}
	bad := good
	bad.SizeBytes = 1000
	if err := bad.Validate(); err == nil {
		t.Error("want error for non-divisible size")
	}
	bad = good
	bad.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero ways")
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := smallCache(WriteBack)
	r := c.Access(5, false, 0)
	if r.Hit {
		t.Error("cold access hit")
	}
	r = c.Access(5, false, 10)
	if !r.Hit {
		t.Error("second access missed")
	}
	if c.Stats.Reads != 2 || c.Stats.ReadMiss != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

// conflictingLines returns three distinct lines that map to the same set
// under the hashed index.
func conflictingLines(c *Cache) (int64, int64, int64) {
	want := c.setOf(0)
	var found []int64
	for l := int64(0); len(found) < 3 && l < 1<<20; l++ {
		if c.setOf(l) == want {
			found = append(found, l)
		}
	}
	return found[0], found[1], found[2]
}

// resident reports whether line is in c, with no state change.
func resident(c *Cache, line int64) bool {
	set := c.setOf(line)
	for _, l := range c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways] {
		if l.valid && l.tag == line {
			return true
		}
	}
	return false
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache(WriteBack) // 8 sets, 2 ways
	a, b2, c3 := conflictingLines(c)
	c.Access(a, false, 0)
	c.Access(b2, false, 1)
	c.Access(c3, false, 2) // evicts a (LRU)
	if resident(c, a) {
		t.Errorf("line %d should be evicted", a)
	}
	if !resident(c, b2) || !resident(c, c3) {
		t.Error("later lines should be present")
	}
}

func TestCacheWriteBackDirtyEviction(t *testing.T) {
	c := smallCache(WriteBack)
	a, b2, c3 := conflictingLines(c)
	c.Access(a, true, 0) // allocate dirty
	c.Access(b2, false, 1)
	r := c.Access(c3, false, 2) // evicts dirty line a
	if r.Writeback != a {
		t.Errorf("writeback = %d, want line %d", r.Writeback, a)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestHashedIndexBreaksStrideAliasing(t *testing.T) {
	// Power-of-two strides (struct-of-arrays plane bases) must not land in
	// one set: with plain modulo indexing lines 0, sets, 2*sets... all
	// alias; the hash must spread them.
	c := smallCache(WriteBack)
	sets := int64(c.cfg.Sets())
	seen := map[int]bool{}
	for j := int64(0); j < 8; j++ {
		seen[c.setOf(j*sets)] = true
	}
	if len(seen) < 4 {
		t.Errorf("stride-%d lines map to only %d sets", sets, len(seen))
	}
}

func TestCacheWriteThroughNoAllocate(t *testing.T) {
	c := smallCache(WriteThrough)
	r := c.Access(3, true, 0)
	if r.Hit {
		t.Error("cold write hit")
	}
	if resident(c, 3) {
		t.Error("write-through no-allocate cache allocated on write miss")
	}
	// A read fill then a write hit must not mark dirty (write-through).
	c.Access(4, false, 1)
	c.Access(4, true, 2)
	c.Access(12, false, 3)
	r = c.Access(20, false, 4) // force eviction in that set
	if r.Writeback != -1 {
		t.Error("write-through cache produced a writeback")
	}
}

func TestCacheBankConflicts(t *testing.T) {
	c := smallCache(WriteBack)
	// Same bank (line addresses congruent mod 4), same cycle: serialized.
	r1 := c.Access(4, false, 100)
	r2 := c.Access(8, false, 100)
	if r1.Ready != 100 {
		t.Errorf("first ready = %d, want 100", r1.Ready)
	}
	if r2.Ready != 101 {
		t.Errorf("conflicting ready = %d, want 101", r2.Ready)
	}
	// Different bank: no conflict.
	r3 := c.Access(5, false, 100)
	if r3.Ready != 100 {
		t.Errorf("different-bank ready = %d, want 100", r3.Ready)
	}
}

func TestDRAMOccupancy(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 2, Banks: 2, AccessLat: 100, BusyCyc: 4})
	t1 := d.Access(0, false, 0)
	t2 := d.Access(4, false, 0) // same bank (4 % 4 == 0)
	if t1 != 100 {
		t.Errorf("t1 = %d, want 100", t1)
	}
	if t2 != 104 {
		t.Errorf("t2 = %d, want 104 (bank busy)", t2)
	}
	t3 := d.Access(1, false, 0) // different bank
	if t3 != 100 {
		t.Errorf("t3 = %d, want 100", t3)
	}
	if d.Stats.Reads != 3 {
		t.Errorf("reads = %d, want 3", d.Stats.Reads)
	}
}

func TestSystemHitFasterThanMiss(t *testing.T) {
	s := NewSystem(DefaultConfig(WriteBack))
	cold := s.AccessWord(0, false, 0)
	warm := s.AccessWord(1, false, cold) // same 128B line
	if warm-cold >= cold {
		t.Errorf("warm access latency %d not better than cold %d", warm-cold, cold)
	}
	st := s.Stats()
	if st.L1.ReadMiss != 1 || st.L2.ReadMiss != 1 || st.DRAM.Reads != 1 {
		t.Errorf("miss path stats = %+v", st)
	}
	if st.L1.Reads != 2 {
		t.Errorf("L1 reads = %d, want 2", st.L1.Reads)
	}
}

func TestSystemWritePolicyTrafficDiffers(t *testing.T) {
	// Repeated writes to one line: write-back L1 absorbs them; a
	// write-through L1 forwards each one to the L2.
	wb := NewSystem(DefaultConfig(WriteBack))
	wt := NewSystem(DefaultConfig(WriteThrough))
	now := int64(0)
	for i := 0; i < 64; i++ {
		wb.AccessWord(int64(i%4), true, now)
		wt.AccessWord(int64(i%4), true, now)
		now += 10
	}
	if got := wb.Stats().L2.Writes; got > 2 {
		t.Errorf("write-back L2 writes = %d, want <= 2", got)
	}
	if got := wt.Stats().L2.Writes; got != 64 {
		t.Errorf("write-through L2 writes = %d, want 64", got)
	}
}

func TestSystemSharedBankConflict(t *testing.T) {
	s := NewSystem(DefaultConfig(WriteBack))
	t1 := s.AccessShared(0, 50)
	t2 := s.AccessShared(32, 50) // same bank (32 banks)
	t3 := s.AccessShared(1, 50)  // different bank
	if t2 <= t1 {
		t.Errorf("conflicting shared access t2=%d not after t1=%d", t2, t1)
	}
	if t3 != t1 {
		t.Errorf("independent shared access t3=%d, want %d", t3, t1)
	}
}

func TestAccessViaL2BypassesL1(t *testing.T) {
	s := NewSystem(DefaultConfig(WriteBack))
	s.AccessViaL2(7, false, 0)
	st := s.Stats()
	if st.L1.Accesses() != 0 {
		t.Errorf("L1 accesses = %d, want 0", st.L1.Accesses())
	}
	if st.L2.Reads != 1 {
		t.Errorf("L2 reads = %d, want 1", st.L2.Reads)
	}
}

// Properties: completion time never precedes issue time and is monotone in
// issue time for a private cache line.
func TestSystemTimingProperties(t *testing.T) {
	s := NewSystem(DefaultConfig(WriteBack))
	f := func(addr uint16, write bool, now uint16) bool {
		done := s.AccessWord(int64(addr), write, int64(now))
		return done > int64(now)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCacheStatsConsistency(t *testing.T) {
	c := smallCache(WriteBack)
	for i := int64(0); i < 1000; i++ {
		c.Access(i%37, i%3 == 0, i)
	}
	st := c.Stats
	if st.Accesses() != 1000 {
		t.Fatalf("accesses = %d, want 1000", st.Accesses())
	}
	if st.Misses() > st.Accesses() {
		t.Error("more misses than accesses")
	}
	if st.Fills < st.ReadMiss {
		t.Error("every read miss must fill")
	}
}

func TestOutstandingCapacity(t *testing.T) {
	o := NewOutstanding(4)
	// Fill with completions far in the future.
	for i := 0; i < 4; i++ {
		if got := o.Admit(int64(i)); got != int64(i) {
			t.Fatalf("Admit(%d) = %d with free slots", i, got)
		}
		o.Record(1000 + int64(i))
	}
	// Full: must wait for the earliest completion (1000).
	if got := o.Admit(10); got != 1000 {
		t.Fatalf("Admit at capacity = %d, want 1000", got)
	}
	o.Record(2000)
	// 1001 is now the earliest of {1001,1002,1003,2000}.
	if got := o.Admit(10); got != 1001 {
		t.Fatalf("second Admit = %d, want 1001", got)
	}
}

func TestReadCombining(t *testing.T) {
	c := smallCache(WriteBack)
	// Warm the line.
	c.Access(0, false, 0)
	base := c.Stats.Combined
	// Burst of reads to the same line within the window: all but the first
	// (already recorded) combine.
	for i := int64(1); i <= 5; i++ {
		c.Access(0, false, i)
	}
	if c.Stats.Combined < base+4 {
		t.Errorf("combined = %d, want >= %d", c.Stats.Combined, base+4)
	}
	// Writes never combine: the merge window serves reads only.
	w0 := c.Stats.Combined
	c.Access(0, true, 6)
	c.Access(0, true, 6)
	if c.Stats.Combined != w0 {
		t.Error("writes combined")
	}
}
