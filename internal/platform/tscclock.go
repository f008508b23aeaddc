package platform

import (
	"sync"
	"sync/atomic"
	"time"
)

// The executive's hot paths — Begin/End's two timestamps per monitored
// section and the queues' sojourn stamps on every hop — read one clock,
// NowNanos, and that read is their largest single cost: the runtime's
// monotonic reader goes through the vDSO's seqlock and scaling (~30ns on a
// virtualized Xeon), a raw RDTSC is under 10ns. With an invariant TSC,
// NowNanos scales raw ticks by a rate calibrated once per process; a zero
// tick reader (non-amd64), a nonsensical rate or ticks that do not advance
// decline the TSC for the monotonic fallback. Observation sites clamp
// derived durations nonnegative, so even a pathological counter cannot feed
// negative time to the monitors. See DESIGN.md ("Timestamps").

// hotClock is the calibrated clock's parameters, immutable once published.
type hotClock struct {
	tsc        bool
	scale      float64 // nanoseconds per tick
	epochTicks int64
	epochUnix  int64
	epochMono  int64 // nanotime() at epochUnix, for the monotonic fallback
}

var (
	calibrateOnce sync.Once
	clock         atomic.Pointer[hotClock]
)

// CalibrateClock prepares NowNanos: it runs the TSC calibration once per
// process (~200µs of one core) and publishes the result. Constructors on
// the hot paths call it, so the first executive or queue pays the cost and
// every later call is a sync.Once check.
func CalibrateClock() {
	calibrateOnce.Do(func() { clock.Store(calibrate()) })
}

// NowNanos returns the current time in unix nanoseconds: the calibrated TSC
// when calibration accepted it, else the runtime's monotonic counter rebased
// onto a wall-clock epoch. Before CalibrateClock has run it falls back to
// time.Now, so it is always correct, only slower.
func NowNanos() int64 {
	c := clock.Load()
	if c == nil {
		return time.Now().UnixNano()
	}
	if c.tsc {
		return c.epochUnix + int64(float64(cputicks()-c.epochTicks)*c.scale)
	}
	return c.epochUnix + nanotime() - c.epochMono
}

// calibrate measures the TSC's tick rate against the runtime clock over a
// 200µs spin and, if it looks sane, anchors a unix-nanosecond epoch to it;
// otherwise it returns the monotonic fallback. A (ticks, time) pairing is
// only trustworthy when nothing ran between its reads: a preemption skews
// the rate, or bakes the pause into every later timestamp as an offset. So
// each pairing brackets the tick read between two clock reads, keeps the
// tightest of eight, and declines the TSC if even that bracket is wide.
func calibrate() *hotClock {
	fallback := &hotClock{epochUnix: time.Now().UnixNano(), epochMono: nanotime()}
	if cputicks() == 0 {
		return fallback
	}
	// pair reads the tick counter bracketed by two reads of clk and returns
	// the tightest bracket of eight: ticks, the bracket's midpoint, width.
	pair := func(clk func() int64) (c, t, gap int64) {
		gap = 1 << 62
		for i := 0; i < 8; i++ {
			t0 := clk()
			ci := cputicks()
			t1 := clk()
			if g := t1 - t0; g < gap {
				c, t, gap = ci, (t0+t1)/2, g
			}
		}
		return
	}
	const maxBracket = 5_000 // ns; back-to-back clock reads are ~100ns
	c0, t0, g0 := pair(nanotime)
	for nanotime()-t0 < 200_000 {
	}
	c1, t1, g1 := pair(nanotime)
	dn, dc := t1-t0, c1-c0
	if dc <= 0 || g0 > maxBracket || g1 > maxBracket {
		return fallback
	}
	scale := float64(dn) / float64(dc)
	// Plausible CPU base clocks run from tens of MHz to ~10GHz.
	if scale < 0.05 || scale > 100 {
		return fallback
	}
	// Anchor the unix epoch with the same bracket discipline.
	ec, ew, gw := pair(func() int64 { return time.Now().UnixNano() })
	if gw > maxBracket {
		return fallback
	}
	return &hotClock{tsc: true, scale: scale, epochTicks: ec, epochUnix: ew}
}
