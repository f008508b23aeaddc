package main

import (
	"sync/atomic"
	"time"
)

// mix is splitmix64's finalizer: a cheap bijective scramble, so a
// checksum built from it changes if any step is skipped, repeated or
// reordered.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// initialSum is item id's checksum before the first stage: the seeded
// input the generator stamps on the item.
func initialSum(seed, id uint64) uint64 { return mix(seed ^ mix(id)) }

// stageSum folds stage s's work result into an item's checksum. The stage
// index enters the mix, so a stage run twice or out of order shows.
func stageSum(sum, work uint64, s int) uint64 { return mix(sum ^ work ^ uint64(s+1)<<56) }

// ledger is the benchmark's output check. Every completed item reports its
// id, its checksum and its latency; the ledger verifies exactly-once
// completion against a bitmap of seen ids and the checksum against a
// sequential reference computed from the id. complete is safe for
// concurrent use: under the fused alternative it runs on PAR workers.
//
// Latency is also kept per window: the measured time after the first
// submit is cut into len(win) windows of winLen, and each completion
// lands in the window its done time falls in (completions after the last
// window, during the final drain, count only in lat).
type ledger struct {
	ref  func(id uint64) uint64
	seen []atomic.Uint64 // one bit per id

	good, dup, bad, overflow atomic.Uint64
	lat                      *hist
	lastDone                 atomic.Int64

	winStart atomic.Int64 // set by start, before any completion
	winLen   int64
	win      []*hist
}

func newLedger(capacity int, ref func(id uint64) uint64, windows int, winLen time.Duration) *ledger {
	l := &ledger{
		ref:    ref,
		seen:   make([]atomic.Uint64, capacity/64+1),
		lat:    newHist(),
		winLen: max(int64(winLen), 1),
		win:    make([]*hist, windows),
	}
	for i := range l.win {
		l.win[i] = newHist()
	}
	return l
}

// start opens the first window at t, the first submit.
func (l *ledger) start(t int64) { l.winStart.Store(t) }

// capacity is the largest number of distinct ids the ledger can track.
func (l *ledger) capacity() int { return len(l.seen) * 64 }

// complete records item id leaving the last stage at done with checksum
// sum, having been due (or sent) at start.
func (l *ledger) complete(id, sum uint64, start, done int64) {
	l.lastDone.Store(done)
	if id >= uint64(l.capacity()) {
		l.overflow.Add(1)
		return
	}
	w, bit := &l.seen[id/64], uint64(1)<<(id%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			l.dup.Add(1)
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	if sum != l.ref(id) {
		l.bad.Add(1)
		return
	}
	l.good.Add(1)
	l.lat.record(done - start)
	if w := (done - l.winStart.Load()) / l.winLen; w >= 0 && w < int64(len(l.win)) {
		l.win[w].record(done - start)
	}
}

// failed returns how many of submitted items did not complete exactly once
// with the correct checksum: lost, duplicated, corrupted or untracked.
func (l *ledger) failed(submitted int) int {
	ok := int(l.good.Load()) - int(l.dup.Load())
	if ok < 0 {
		ok = 0
	}
	return submitted - ok
}
