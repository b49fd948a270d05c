package main

import (
	"runtime"
	"sort"
	"time"
)

// refCalibration is what one calibration run takes on the reference host (a
// 2-vCPU x86-64 VM at 2.1 GHz) when its neighbours are quiet.
const refCalibration = 11 * time.Millisecond

// calibration is a fixed piece of work the benchmark times between its own
// ops: hash-map inserts, appends and a sort over memory allocated once. The
// reference host shares its caches and memory bandwidth with other tenants,
// and its speed drifts by up to ±30% within minutes; the calibration slows
// with it. Scaling each timing by refCalibration over the calibration time
// measured around it removes most of that drift, so a timing reads as host
// time on the reference host when quiet.
type calibration struct {
	keys []int
	m    map[int]int
	last time.Duration // the previous calibration run
}

const calibrationKeys = 100_000

func newCalibration() *calibration {
	c := &calibration{keys: make([]int, 0, calibrationKeys), m: make(map[int]int, calibrationKeys)}
	c.last = c.run()
	return c
}

// factor returns the scale for the time since the previous call (or since
// newCalibration): refCalibration over the mean of the calibration runs at
// its two ends.
func (c *calibration) factor() float64 {
	t := c.run()
	f := float64(refCalibration) / float64(c.last+t) * 2
	c.last = t
	return f
}

// run times one calibration. A forced collection first finishes any cycle
// the ops' garbage started, so the code under test cannot slow the
// calibration through the collector.
func (c *calibration) run() time.Duration {
	runtime.GC()
	t0 := time.Now()
	clear(c.m)
	c.keys = c.keys[:0]
	x := uint64(7)
	for i := 0; i < calibrationKeys; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := int(x >> 40)
		c.m[k] += i
		c.keys = append(c.keys, k)
	}
	sort.Ints(c.keys)
	return time.Since(t0)
}
