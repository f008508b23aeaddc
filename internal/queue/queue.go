// Package queue provides the concurrent FIFO queues that connect DoPE tasks.
//
// In the paper, adjacent pipeline stages communicate through work queues and
// each task's LoadCB reports the occupancy of its in-queue (Figure 7,
// TranscodeLoadCB et al.). Reconfiguration drains pipelines by propagating a
// sentinel through these queues (the ReadFiniCB/TransformFiniCB pattern).
// This package reproduces those semantics:
//
//   - blocking Enqueue/Dequeue with optional capacity bound,
//   - O(1) Len usable as a LoadCB without taking the queue lock contended by
//     producers and consumers (an atomic occupancy counter),
//   - Close, which wakes all blocked consumers — the moral equivalent of the
//     sentinel NULL token, but race-free for multi-consumer stages,
//   - occupancy statistics (peak, enqueue/dequeue counts) for the monitors.
//
// Items live in a ring buffer that grows by doubling — up to the capacity of
// a bounded queue, without limit for an unbounded one — and never shrinks,
// so a queue at its working size moves items without allocating.
package queue

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dope/internal/platform"
	"dope/internal/stats"
)

// sojournAlpha smooths the queue-sojourn EWMA. Sojourn is a per-item signal
// read at control-tick granularity, so it smooths a little harder than the
// monitor's default.
const sojournAlpha = 0.2

// ErrClosed is returned by Enqueue on a closed queue and by Dequeue once a
// closed queue is fully drained.
var ErrClosed = errors.New("queue: closed")

// ErrShed is returned by Enqueue on a full ShedNewest queue: the offered
// item was dropped (and counted) instead of blocking the producer. It is an
// overload signal, not a failure; producers typically keep going.
var ErrShed = errors.New("queue: item shed")

// OverloadPolicy selects what a bounded queue does when an enqueue arrives
// while it is full. Block is the paper's behavior — backpressure propagates
// upstream through the blocked producer. The shed policies trade work for
// latency: the queue never blocks a producer, so under sustained overload
// the stage's sojourn time stays bounded by capacity/service-rate while the
// shed counter records the deficit.
type OverloadPolicy int

const (
	// Block makes Enqueue wait for space (the default; backpressure).
	Block OverloadPolicy = iota
	// ShedOldest drops the queue head to admit the new item — freshest-work
	// wins, fitting servers where stale requests have already timed out
	// upstream.
	ShedOldest
	// ShedNewest drops the offered item — admitted work is never wasted,
	// fitting pipelines where upstream stages have already invested in the
	// queued items.
	ShedNewest
)

// String returns the policy's conventional name.
func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case ShedOldest:
		return "shed-oldest"
	case ShedNewest:
		return "shed-newest"
	default:
		return "invalid"
	}
}

// slot is one ring entry: an item and its enqueue time in unix nanoseconds.
type slot[T any] struct {
	item T
	at   int64
}

// Queue is a FIFO of items of type T, safe for any number of concurrent
// producers and consumers. A capacity of 0 means unbounded.
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	// ring holds the n queued items in order from ring[head], wrapping at
	// len(ring). Popped slots are zeroed so the GC can reclaim their items.
	ring     []slot[T]
	head     int
	n        int
	capacity int
	policy   OverloadPolicy
	closed   bool
	// wakeCh, when non-nil, is closed to wake DequeueWhile waiters on
	// enqueue/close. It is created lazily by the first waiter so queues
	// without DequeueWhile consumers pay nothing per enqueue.
	//
	// Wakeup audit: every path that makes an item (or closure) observable —
	// Enqueue, TryEnqueue, the shed-oldest swap, and Close — must call
	// wakeLocked before releasing q.mu, or a DequeueWhile waiter sleeps a
	// full poll period on work that is already there. Dequeue-side
	// transitions (occupancy dropping) deliberately do not wake: waiters
	// wait for items, and predicates that watch occupancy fall are served
	// by the poll timeout. TestBoundedEnqueueWakesDequeueWhile is the
	// regression test for the enqueue side.
	wakeCh chan struct{}

	// Sojourn tracking: each slot carries its item's enqueue time and every
	// dequeue folds the item's wait into the EWMA. Shed items — the head
	// dropped by ShedOldest, the newcomer refused by ShedNewest — are
	// deliberately NOT folded: they never received service, and counting
	// their waits would let survivorship skew the estimate the what-if
	// profiler reads (under shed-oldest the longest waiters are exactly the
	// ones dropped, so folding them would overstate the sojourn of the work
	// that actually flowed — and folding the refused newcomers' zero waits
	// would understate it). nowFn is the injectable clock for tests and
	// simulations.
	nowFn   func() int64
	sojourn *stats.EWMA

	occupancy atomic.Int64 // mirrors n for lock-free Len
	enqueued  atomic.Uint64
	dequeued  atomic.Uint64
	shed      atomic.Uint64
	peak      atomic.Int64
}

// New returns an empty queue. capacity <= 0 means unbounded.
func New[T any](capacity int) *Queue[T] {
	return NewWithPolicy[T](capacity, Block)
}

// NewWithPolicy returns an empty queue with the given overload policy. The
// policy only matters for bounded queues; an unbounded queue never sheds.
func NewWithPolicy[T any](capacity int, policy OverloadPolicy) *Queue[T] {
	platform.CalibrateClock()
	q := &Queue[T]{capacity: capacity, policy: policy, sojourn: stats.NewEWMA(sojournAlpha)}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// Enqueue appends item. On a full bounded queue the overload policy
// decides: Block waits for space (returning ErrClosed if the queue closes
// while waiting), ShedOldest drops the queue head to admit the item, and
// ShedNewest drops the offered item and returns ErrShed.
func (q *Queue[T]) Enqueue(item T) error {
	q.mu.Lock()
	if q.policy == Block {
		for q.fullLocked() && !q.closed {
			q.notFull.Wait()
		}
	}
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	if q.fullLocked() {
		switch q.policy {
		case ShedNewest:
			q.shed.Add(1)
			q.mu.Unlock()
			return ErrShed
		case ShedOldest:
			// Drop the head without folding its stamp into the sojourn
			// EWMA: a shed item was never served, and its (maximal) wait
			// would skew the survivor estimate. See the sojourn field doc.
			q.popLocked()
			q.shed.Add(1)
		}
	}
	q.pushLocked(item)
	q.mu.Unlock()
	return nil
}

// fullLocked reports whether a bounded queue is at capacity. Called with
// q.mu held.
func (q *Queue[T]) fullLocked() bool {
	return q.capacity > 0 && q.n >= q.capacity
}

// pushLocked appends item with the current stamp, growing the ring when it
// is full, and publishes the new occupancy to Len, Peak and the waiters.
// Called with q.mu held and room for the item.
func (q *Queue[T]) pushLocked(item T) {
	if q.n == len(q.ring) {
		q.growLocked()
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = slot[T]{item: item, at: q.nowNanosLocked()}
	q.n++
	n := int64(q.n)
	q.occupancy.Store(n)
	for {
		p := q.peak.Load()
		if n <= p || q.peak.CompareAndSwap(p, n) {
			break
		}
	}
	q.enqueued.Add(1)
	q.notEmpty.Signal()
	q.wakeLocked()
}

// growLocked doubles the ring (from 4 slots), never past a bounded queue's
// capacity, and unwraps the items to start at index 0. Called with q.mu
// held.
func (q *Queue[T]) growLocked() {
	size := max(2*len(q.ring), 4)
	if q.capacity > 0 {
		size = min(size, q.capacity)
	}
	ring := make([]slot[T], size)
	k := copy(ring, q.ring[q.head:])
	copy(ring[k:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// popLocked removes and returns the head slot, zeroing it so the GC can
// reclaim the item. Called with q.mu held on a nonempty queue; the caller
// publishes the new occupancy (the shed-oldest swap never lets Len dip).
func (q *Queue[T]) popLocked() slot[T] {
	s := q.ring[q.head]
	q.ring[q.head] = slot[T]{}
	q.head++
	if q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return s
}

// serveLocked pops the head for service: it folds the item's wait into the
// sojourn EWMA and wakes a producer blocked on a full queue. Called with
// q.mu held on a nonempty queue.
func (q *Queue[T]) serveLocked() T {
	s := q.popLocked()
	q.occupancy.Store(int64(q.n))
	d := q.nowNanosLocked() - s.at
	if d < 0 {
		d = 0
	}
	q.sojourn.Observe(float64(d) / 1e9)
	q.dequeued.Add(1)
	q.notFull.Signal()
	return s.item
}

// wakeLocked wakes all DequeueWhile waiters. Called with q.mu held.
func (q *Queue[T]) wakeLocked() {
	if q.wakeCh != nil {
		close(q.wakeCh)
		q.wakeCh = nil
	}
}

// TryEnqueue appends item without blocking. It reports false when the queue
// is full, and ErrClosed when closed.
func (q *Queue[T]) TryEnqueue(item T) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, ErrClosed
	}
	if q.fullLocked() {
		return false, nil
	}
	q.pushLocked(item)
	return true, nil
}

// Dequeue removes and returns the oldest item, blocking while the queue is
// empty. Once the queue is closed and drained it returns ErrClosed.
func (q *Queue[T]) Dequeue() (T, error) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if q.n == 0 { // closed and drained
		q.mu.Unlock()
		var zero T
		return zero, ErrClosed
	}
	item := q.serveLocked()
	q.mu.Unlock()
	return item, nil
}

// TryDequeue removes and returns the oldest item without blocking. The bool
// reports whether an item was returned; err is ErrClosed only when the queue
// is closed and drained.
func (q *Queue[T]) TryDequeue() (T, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		var zero T
		if q.closed {
			return zero, false, ErrClosed
		}
		return zero, false, nil
	}
	return q.serveLocked(), true, nil
}

// DequeueWhile dequeues like Dequeue but gives up when keepWaiting returns
// false. While the queue is empty it blocks on an enqueue/close wakeup
// channel rather than busy-polling; poll is only the re-check period for
// keepWaiting (the executive's suspension/retirement flag is not wired to
// the queue, so it must be observed by timeout). The bool reports whether
// an item was returned; err is ErrClosed when the queue is closed and
// drained. DoPE task functors use this to block for work while remaining
// responsive to the executive's reconfiguration requests.
func (q *Queue[T]) DequeueWhile(keepWaiting func() bool, poll time.Duration) (T, bool, error) {
	if poll <= 0 {
		poll = time.Millisecond
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		item, ok, err := q.TryDequeue()
		if ok || err != nil {
			return item, ok, err
		}
		if !keepWaiting() {
			var zero T
			return zero, false, nil
		}
		wake := q.dequeueWait()
		if wake == nil { // item or closure appeared since TryDequeue
			continue
		}
		if timer == nil {
			timer = time.NewTimer(poll)
		} else {
			timer.Reset(poll)
		}
		select {
		case <-wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
		}
	}
}

// dequeueWait returns a channel closed at the next enqueue or Close, or nil
// when the queue already has items (or is closed) and the caller should
// retry immediately.
func (q *Queue[T]) dequeueWait() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n > 0 || q.closed {
		return nil
	}
	if q.wakeCh == nil {
		q.wakeCh = make(chan struct{})
	}
	return q.wakeCh
}

// Close marks the queue closed. Blocked producers fail with ErrClosed;
// consumers drain remaining items and then receive ErrClosed. Closing twice
// is harmless.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.wakeLocked()
	q.mu.Unlock()
}

// Reopen clears the closed flag so the queue can be reused after a DoPE
// reconfiguration (the InitCB path). Items still in the queue are preserved.
func (q *Queue[T]) Reopen() {
	q.mu.Lock()
	q.closed = false
	q.mu.Unlock()
}

// Closed reports whether Close has been called (and not undone by Reopen).
func (q *Queue[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Len returns the instantaneous occupancy without locking; it is the
// intended implementation for a task's LoadCB.
func (q *Queue[T]) Len() int { return int(q.occupancy.Load()) }

// Peak returns the highest occupancy ever observed.
func (q *Queue[T]) Peak() int { return int(q.peak.Load()) }

// Enqueued returns the total number of successful Enqueue operations.
func (q *Queue[T]) Enqueued() uint64 { return q.enqueued.Load() }

// Dequeued returns the total number of successful Dequeue operations.
func (q *Queue[T]) Dequeued() uint64 { return q.dequeued.Load() }

// Shed returns the total number of items dropped by the overload policy.
func (q *Queue[T]) Shed() uint64 { return q.shed.Load() }

// nowNanosLocked reads the queue's clock. Callers hold q.mu (nowFn is written by
// SetNowFunc before the queue is shared).
func (q *Queue[T]) nowNanosLocked() int64 {
	if q.nowFn != nil {
		return q.nowFn()
	}
	return platform.NowNanos()
}

// SetNowFunc installs a clock for sojourn stamps (UnixNano). Pass nil to
// restore the process's hot-path clock (platform.NowNanos). Intended for tests and virtual-time simulations;
// call before the queue is shared between goroutines.
func (q *Queue[T]) SetNowFunc(now func() int64) {
	q.mu.Lock()
	q.nowFn = now
	q.mu.Unlock()
}

// MeanSojourn returns the smoothed queue wait in seconds of items that were
// actually dequeued for service. Items dropped by a shed policy do not
// contribute: under shed-oldest the longest waiters are exactly the dropped
// ones, and folding them in would overstate the sojourn of the surviving
// flow (and hence the apparent payoff of speeding up an overloaded stage).
// Returns 0 before the first dequeue; check SojournSamples to distinguish
// "fast" from "no data".
func (q *Queue[T]) MeanSojourn() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sojourn.Value()
}

// SojournSamples returns how many dequeued items have contributed to
// MeanSojourn.
func (q *Queue[T]) SojournSamples() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sojourn.Count()
}
