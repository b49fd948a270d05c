package mem

import (
	"math/rand/v2"
	"testing"
)

// TestConflictFreeMatchesCache: the conflict check describes the cache it
// names. Touching every line of [0, n) once through a real Cache, in
// ascending order and in a seeded shuffle, evicts exactly when
// ConflictFree(n) is false. The geometries cover set counts that are and
// are not powers of two (1–64 KiB in 1-KiB steps, then to 512 KiB in 8-KiB
// steps), two line sizes and four associativities; n sits just below, at
// and just above the cache's line capacity, plus seeded random values.
func TestConflictFreeMatchesCache(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	geometries, conflicted := 0, 0
	for kib := 1; kib <= 512; kib++ {
		if kib > 64 && kib%8 != 0 {
			continue
		}
		for _, lineBytes := range []int{64, 128} {
			for _, ways := range []int{1, 2, 4, 8} {
				cfg := CacheConfig{SizeBytes: kib << 10, LineBytes: lineBytes, Ways: ways, Banks: 4, HitLat: 1}
				if cfg.Validate() != nil {
					continue
				}
				geometries++
				capacity := int64(cfg.Sets() * ways)
				for _, n := range []int64{capacity - 1, capacity, capacity + 1,
					1 + rng.Int64N(capacity), 1 + rng.Int64N(2*capacity)} {
					free := cfg.ConflictFree(n)
					if !free {
						conflicted++
					}
					lines := make([]int64, n)
					for i := range lines {
						lines[i] = int64(i)
					}
					for _, order := range []string{"ascending", "shuffled"} {
						if order == "shuffled" {
							rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
						}
						if evicted := touchEvicts(cfg, lines); evicted == free {
							t.Fatalf("%d KiB, %d B lines, %d ways (%d sets), %d lines %s: evicted = %v, ConflictFree = %v",
								kib, lineBytes, ways, cfg.Sets(), n, order, evicted, free)
						}
					}
				}
			}
		}
	}
	if conflicted == 0 {
		t.Error("no case had a set conflict")
	}
	t.Logf("%d geometries, %d conflicted line counts", geometries, conflicted)
}

// touchEvicts reads each line once through a fresh cache and reports
// whether any access displaced a valid line.
func touchEvicts(cfg CacheConfig, lines []int64) bool {
	c := NewCache(cfg)
	defer c.Release()
	for i, l := range lines {
		if c.Access(l, false, int64(i)).Evicted {
			return true
		}
	}
	return false
}
