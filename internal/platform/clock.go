// Package platform models the parallel platform underneath DoPE: hardware
// execution contexts, a feature registry for platform monitoring, a clock
// abstraction, and the process's hot-path clock (NowNanos).
//
// The paper evaluates on a 24-core Intel Xeon X7460. We do not have that
// machine; instead a Contexts token pool caps how many task instances may be
// inside their CPU-intensive sections (between Task.Begin and Task.End)
// simultaneously, which is exactly the resource the paper's DoP extents
// ration. Goroutines stand in for Pthreads; the Go scheduler plays the role
// of the OS scheduler in the "Pthreads-OS" baseline.
package platform

import (
	"sync"
	"time"
)

// Clock abstracts time so that the runtime and the discrete-event simulator
// can share monitoring code. Real code uses WallClock; tests and the
// simulator use a VirtualClock they advance explicitly.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTicker returns a ticker that delivers on multiples of d in this
	// clock's time base. The executive's control loop runs on it, so a
	// virtual clock drives control ticks deterministically.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the clock-agnostic face of time.Ticker: a channel of tick
// times plus Stop. Like time.Ticker, ticks are dropped (not queued) when
// the receiver lags.
type Ticker interface {
	// C returns the delivery channel.
	C() <-chan time.Time
	// Stop releases the ticker's resources; the channel is not closed.
	Stop()
}

// WallClock is the process's real monotonic clock.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() time.Time { return time.Now() }

// NewTicker implements Clock over time.NewTicker.
func (WallClock) NewTicker(d time.Duration) Ticker {
	return wallTicker{t: time.NewTicker(d)}
}

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }

func (w wallTicker) Stop() { w.t.Stop() }

// VirtualClock is a manually advanced clock for deterministic tests and the
// discrete-event simulator. It is safe for concurrent use.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*virtualTicker
}

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative d is ignored; virtual time
// never runs backwards. Tickers whose next deadline falls inside the jump
// fire (once per crossing, coalesced like time.Ticker).
func (c *VirtualClock) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.fireLocked()
	c.mu.Unlock()
}

// Set jumps the clock to t if t is not before the current time.
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
		c.fireLocked()
	}
	c.mu.Unlock()
}

// NewTicker implements Clock: the ticker fires when Advance/Set crosses its
// next deadline. Delivery is non-blocking with a one-tick buffer, matching
// time.Ticker's drop-on-lag semantics.
func (c *VirtualClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("platform: non-positive ticker period")
	}
	c.mu.Lock()
	t := &virtualTicker{
		clock:  c,
		period: d,
		next:   c.now.Add(d),
		ch:     make(chan time.Time, 1),
	}
	c.tickers = append(c.tickers, t)
	c.mu.Unlock()
	return t
}

// fireLocked delivers due ticks. Called with c.mu held.
func (c *VirtualClock) fireLocked() {
	for _, t := range c.tickers {
		if t.next.After(c.now) {
			continue
		}
		select {
		case t.ch <- c.now:
		default: // receiver lagging: drop, like time.Ticker
		}
		// Skip any deadlines the jump overran; next strictly after now.
		missed := c.now.Sub(t.next)/t.period + 1
		t.next = t.next.Add(missed * t.period)
	}
}

type virtualTicker struct {
	clock  *VirtualClock
	period time.Duration
	next   time.Time
	ch     chan time.Time
}

func (t *virtualTicker) C() <-chan time.Time { return t.ch }

func (t *virtualTicker) Stop() {
	c := t.clock
	c.mu.Lock()
	for i, other := range c.tickers {
		if other == t {
			c.tickers = append(c.tickers[:i], c.tickers[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}
