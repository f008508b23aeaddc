package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// hist is a log-linear histogram of non-negative int64 samples (ns, or any
// count) that many goroutines may record into at once: every bucket is an
// atomic counter, so the done path of a fused pipeline, which runs on PAR
// workers, needs no lock. Values below 2^subBits land in exact buckets;
// above that each power of two is split into 2^subBits equal sub-buckets,
// so a reported quantile is within 1/2^subBits (0.8%) of the true sample.
type hist struct {
	counts []atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
	// Exponents subBits..62 each get subBuckets buckets after the exact
	// range, which covers every non-negative int64.
	histBuckets = subBuckets + (63-subBits)*subBuckets
)

func newHist() *hist { return &hist{counts: make([]atomic.Uint64, histBuckets)} }

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v) >= subBits
	sub := int(v>>(e-subBits)) & (subBuckets - 1)
	return subBuckets + (e-subBits)*subBuckets + sub
}

// bucketRange returns the half-open value range [lo, hi) of bucket b.
func bucketRange(b int) (lo, hi int64) {
	if b < subBuckets {
		return int64(b), int64(b) + 1
	}
	e := (b-subBuckets)/subBuckets + subBits
	sub := int64((b - subBuckets) % subBuckets)
	width := int64(1) << (e - subBits)
	lo = (int64(subBuckets) + sub) * width
	return lo, lo + width
}

// record adds one sample; negative samples (a clock stepping back) count
// as zero.
func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

func (h *hist) count() int { return int(h.n.Load()) }

func (h *hist) mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns the p-quantile (0 < p <= 1): the ceil(p·n)-th smallest
// sample, placed within its bucket by linear interpolation over the
// bucket's samples (exact below 2^subBits), or 0 for no samples. Call it
// only after every recorder has finished.
func (h *hist) quantile(p float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(rankOf(p, int(n)))
	var cum uint64
	for b := range h.counts {
		c := h.counts[b].Load()
		if cum+c >= rank {
			lo, hi := bucketRange(b)
			if hi-lo == 1 {
				return float64(lo)
			}
			return float64(lo) + float64(hi-lo)*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, _ := bucketRange(len(h.counts) - 1)
	return float64(lo)
}

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything.
const minBeyond = 10

// tailPercentile returns the highest percentile, at most want, that leaves
// at least minBeyond of n samples above it, and how many samples lie above
// it. A tail metric reports at this percentile and states the sample
// count, so a short run cannot pass off its maximum as a p99. It never
// goes below the median: with fewer than 2·minBeyond samples there is no
// tail to speak of, and it returns the median with fewer than minBeyond
// beyond.
func tailPercentile(n int, want float64) (p float64, beyond int) {
	p = want
	if limit := 1 - float64(minBeyond)/float64(n); p > limit {
		// Round down to the nearest 0.1 percentile so the label stays
		// readable (p99.9, p98.7, ...).
		p = math.Floor(limit*1000) / 1000
	}
	p = max(p, 0.5)
	if n == 0 {
		return p, 0
	}
	return p, n - rankOf(p, n)
}

// rankOf is the 1-based rank of the p-quantile among n samples. The
// epsilon keeps p·n that should be whole (0.99·1000) from rounding up.
func rankOf(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)-1e-9)), 1)
}
