package main

import (
	"math"
	"sync"
	"testing"
)

func TestBucketRangeHoldsValue(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 4095, 4096, 1e6, 123456789, math.MaxInt64} {
		b := bucketOf(v)
		lo, hi := bucketRange(b)
		if v < lo || (v >= hi && hi > lo) {
			t.Errorf("value %d in bucket %d = [%d, %d)", v, b, lo, hi)
		}
		if b < prev {
			t.Errorf("bucket of %d = %d, below the previous value's %d", v, b, prev)
		}
		prev = b
	}
	if b := bucketOf(math.MaxInt64); b >= histBuckets {
		t.Fatalf("max value maps to bucket %d of %d", b, histBuckets)
	}
}

func TestQuantileWithinPrecision(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		want := p * 100000
		if got := h.quantile(p); math.Abs(got-want)/want > 1.0/subBuckets {
			t.Errorf("p%g = %.0f, want %.0f within %.2f%%", p*100, got, want, 100.0/subBuckets)
		}
	}
	if got := h.mean(); got != 50000.5 {
		t.Errorf("mean = %v, want 50000.5", got)
	}
	if got := newHist().quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		beyond int
	}{
		{5000, 0.99, 50},
		{1000, 0.99, 10},
		{999, 0.989, 10},
		{500, 0.98, 10},
		{200, 0.95, 10},
		{15, 0.5, 7}, // too few for any tail: the median, flagged by beyond < 10
		{0, 0.5, 0},
	} {
		p, beyond := tailPercentile(tc.n, 0.99)
		if math.Abs(p-tc.want) > 1e-12 || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", tc.n, p*100, beyond, tc.want*100, tc.beyond)
		}
		if tc.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, p*100)
		}
	}
}

func TestHistConcurrentRecord(t *testing.T) {
	h := newHist()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.record(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.count())
	}
}
