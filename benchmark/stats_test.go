package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 50 || xs[1] != 15 {
		t.Error("percentile must not reorder its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestQuartiles(t *testing.T) {
	xs := []float64{8, 1, 7, 2, 6, 3, 5, 4} // 1..8
	q1, med, q3 := quartiles(xs)
	if q1 != 2 || med != 4 || q3 != 6 {
		t.Errorf("quartiles = %v %v %v, want 2 4 6", q1, med, q3)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond it,
// so p99 needs n >= 1000.
func TestTailMeasurable(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {5000, 0.99, true},
		{10, 0.5, false}, {20, 0.5, true}, {0, 0.5, false},
	} {
		if got := tailMeasurable(tc.n, tc.q); got != tc.want {
			t.Errorf("tailMeasurable(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("op", 0, -1, at(0), at(100))
	r.add("a", 0, root, at(10), at(40))
	r.add("b", 0, root, at(30), at(60))  // overlaps a: covered once
	r.add("c", 0, root, at(90), at(120)) // clipped at the root's end
	self := r.selfTimes()
	if got, want := self["op"], 40*time.Millisecond; got != want {
		t.Errorf("root self time = %v, want %v", got, want)
	}
	if got, want := self["a"], 30*time.Millisecond; got != want {
		t.Errorf("child self time = %v, want %v", got, want)
	}
}
