package main

import (
	"math/rand"
	"time"
)

// poissonSchedule returns the due times (ns offsets from the start of the
// run) of a seeded Poisson arrival process at rate per second, up to the
// horizon. The same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, horizon time.Duration) []int64 {
	rng := rand.New(rand.NewSource(seed))
	due := make([]int64, 0, int(rate*horizon.Seconds()*1.1)+16)
	var t float64
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(horizon) {
			return due
		}
		due = append(due, int64(t))
	}
}

// lagStats is how late an open-loop generator ran: for each arrival, the
// time from when it was due to when it was actually submitted.
type lagStats struct {
	h     *hist
	total int64 // ns, summed over arrivals
}

// runOpenLoop submits arrival i at base+due[i] on the clock now, sleeping
// while the next arrival is not yet due and never waiting for the system:
// a late generator submits the backlog at once, so a stall delays the
// arrivals behind it instead of thinning them. submit receives the
// absolute due time, from which latency is measured, so the generator's
// own lateness is charged to the system under test, as a user would see
// it. stop, polled between arrivals, ends the loop early; runOpenLoop
// returns how many arrivals it submitted.
func runOpenLoop(base int64, due []int64, now func() int64, sleep func(time.Duration),
	stop func() bool, lag *lagStats, submit func(i int, due int64)) int {
	for i, d := range due {
		at := base + d
		for {
			t := now()
			if t >= at {
				break
			}
			if stop() {
				return i
			}
			sleep(time.Duration(at - t))
		}
		late := now() - at
		lag.h.record(late)
		lag.total += late
		submit(i, at)
	}
	return len(due)
}
