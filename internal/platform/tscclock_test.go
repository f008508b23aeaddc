package platform

import (
	"sync"
	"testing"
	"time"
)

// The clock is calibrated lazily by whichever constructor runs first, so
// readers and calibrators may overlap; under -race this pins that the
// publication is synchronized. It is the first test in the package to
// calibrate, so the overlap it creates is with the real calibration.
func TestNowNanosConcurrentWithCalibration(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			CalibrateClock()
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if NowNanos() <= 0 {
					t.Error("NowNanos returned a pre-epoch time")
					return
				}
			}
		}()
	}
	wg.Wait()
	if clock.Load() == nil {
		t.Fatal("CalibrateClock did not publish a clock")
	}
}

// NowNanos must agree with the wall clock to well under the monitor control
// interval, and must never run backwards between consecutive reads — on the
// TSC and on the monotonic fallback alike.
func TestNowNanosTracksWallClock(t *testing.T) {
	CalibrateClock()
	if !clock.Load().tsc {
		t.Log("TSC declined by calibration on this machine; checking the monotonic fallback")
	}
	for i := 0; i < 5; i++ {
		d := NowNanos() - time.Now().UnixNano()
		if d < 0 {
			d = -d
		}
		if d > int64(50*time.Millisecond) {
			t.Fatalf("NowNanos diverges from wall clock by %v", time.Duration(d))
		}
		time.Sleep(time.Millisecond)
	}
	prev := NowNanos()
	for i := 0; i < 100_000; i++ {
		now := NowNanos()
		if now < prev {
			t.Fatalf("NowNanos went backwards: %d -> %d", prev, now)
		}
		prev = now
	}
}

var clockSink int64

func BenchmarkNowNanos(b *testing.B) {
	CalibrateClock()
	var x int64
	for i := 0; i < b.N; i++ {
		x += NowNanos()
	}
	clockSink = x
}

func BenchmarkNanotime(b *testing.B) {
	var x int64
	for i := 0; i < b.N; i++ {
		x += nanotime()
	}
	clockSink = x
}
