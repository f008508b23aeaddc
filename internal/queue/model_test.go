package queue

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dope/internal/stats"
)

// refQueue is the executable specification the model test checks Queue
// against: a plain-slice FIFO with the same overload, close and sojourn
// rules, written for clarity rather than speed.
type refQueue struct {
	capacity int
	policy   OverloadPolicy
	closed   bool
	items    []int
	stamps   []int64
	peak     int
	shed     uint64
	sojourn  *stats.EWMA
}

func (r *refQueue) full() bool { return r.capacity > 0 && len(r.items) >= r.capacity }

func (r *refQueue) push(item int, now int64) {
	r.items = append(r.items, item)
	r.stamps = append(r.stamps, now)
	if len(r.items) > r.peak {
		r.peak = len(r.items)
	}
}

func (r *refQueue) pop(now int64) int {
	item := r.items[0]
	r.sojourn.Observe(float64(max(now-r.stamps[0], 0)) / 1e9)
	r.items, r.stamps = r.items[1:], r.stamps[1:]
	return item
}

// enqueue mirrors Enqueue for every case that does not block.
func (r *refQueue) enqueue(item int, now int64) error {
	if r.closed {
		return ErrClosed
	}
	if r.full() {
		switch r.policy {
		case ShedNewest:
			r.shed++
			return ErrShed
		case ShedOldest:
			// The dropped head's wait is never folded into the sojourn.
			r.items, r.stamps = r.items[1:], r.stamps[1:]
			r.shed++
		}
	}
	r.push(item, now)
	return nil
}

func (r *refQueue) tryEnqueue(item int, now int64) (bool, error) {
	if r.closed {
		return false, ErrClosed
	}
	if r.full() {
		return false, nil
	}
	r.push(item, now)
	return true, nil
}

func (r *refQueue) tryDequeue(now int64) (int, bool, error) {
	if len(r.items) == 0 {
		if r.closed {
			return 0, false, ErrClosed
		}
		return 0, false, nil
	}
	return r.pop(now), true, nil
}

// TestQueueMatchesReferenceModel drives random operation sequences against
// the queue and the reference FIFO in lockstep, under a virtual clock, and
// compares every observable after every step. Small capacities force many
// wraparounds and shed-oldest drops at every head position; the unbounded
// case forces repeated growth with items in flight.
func TestQueueMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 8} {
		for _, policy := range []OverloadPolicy{Block, ShedOldest, ShedNewest} {
			for seed := int64(1); seed <= 20; seed++ {
				name := fmt.Sprintf("cap%d/%s/seed%d", capacity, policy, seed)
				t.Run(name, func(t *testing.T) {
					runModel(t, capacity, policy, rand.New(rand.NewSource(seed)))
				})
			}
		}
	}
}

func runModel(t *testing.T, capacity int, policy OverloadPolicy, rng *rand.Rand) {
	t.Helper()
	q := NewWithPolicy[int](capacity, policy)
	var now int64
	q.SetNowFunc(func() int64 { return now })
	ref := &refQueue{capacity: capacity, policy: policy, sojourn: stats.NewEWMA(sojournAlpha)}

	next := 0
	for step := 0; step < 600; step++ {
		now += rng.Int63n(5_000_000)
		var op string
		// Weights favour enqueues slightly so unbounded queues grow
		// through several doublings while bounded ones sit at capacity.
		switch k := rng.Intn(100); {
		case k < 40:
			op = "Enqueue"
			if policy == Block && ref.full() && !ref.closed {
				op = "TryEnqueue" // Enqueue would block the test goroutine
			}
		case k < 50:
			op = "TryEnqueue"
		case k < 85:
			op = "TryDequeue"
		case k < 93:
			op = "Dequeue"
			if len(ref.items) == 0 && !ref.closed {
				op = "TryDequeue" // Dequeue would block the test goroutine
			}
		case k < 96:
			op = "Close"
		default:
			op = "Reopen"
		}

		switch op {
		case "Enqueue":
			next++
			got, want := q.Enqueue(next), ref.enqueue(next, now)
			if !errors.Is(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("step %d Enqueue(%d): err %v, want %v", step, next, got, want)
			}
		case "TryEnqueue":
			next++
			ok, err := q.TryEnqueue(next)
			wok, werr := ref.tryEnqueue(next, now)
			if ok != wok || !errors.Is(err, werr) || (err == nil) != (werr == nil) {
				t.Fatalf("step %d TryEnqueue(%d): %v %v, want %v %v", step, next, ok, err, wok, werr)
			}
		case "TryDequeue":
			v, ok, err := q.TryDequeue()
			wv, wok, werr := ref.tryDequeue(now)
			if v != wv || ok != wok || !errors.Is(err, werr) || (err == nil) != (werr == nil) {
				t.Fatalf("step %d TryDequeue: %v %v %v, want %v %v %v", step, v, ok, err, wv, wok, werr)
			}
		case "Dequeue":
			v, err := q.Dequeue()
			wv, _, werr := ref.tryDequeue(now)
			if v != wv || !errors.Is(err, werr) || (err == nil) != (werr == nil) {
				t.Fatalf("step %d Dequeue: %v %v, want %v %v", step, v, err, wv, werr)
			}
		case "Close":
			q.Close()
			ref.closed = true
		case "Reopen":
			q.Reopen()
			ref.closed = false
		}
		checkModel(t, fmt.Sprintf("step %d (%s)", step, op), q, ref)
	}

	// Drain: whatever is left must come out in the reference order.
	q.Reopen()
	ref.closed = false
	for len(ref.items) > 0 {
		now += 1_000_000
		v, ok, err := q.TryDequeue()
		if want := ref.pop(now); !ok || err != nil || v != want {
			t.Fatalf("drain: got %v %v %v, want %v", v, ok, err, want)
		}
		checkModel(t, "drain", q, ref)
	}
	if _, ok, _ := q.TryDequeue(); ok {
		t.Fatal("queue holds items the reference does not")
	}
}

func checkModel(t *testing.T, at string, q *Queue[int], ref *refQueue) {
	t.Helper()
	if q.Len() != len(ref.items) {
		t.Fatalf("%s: Len = %d, want %d", at, q.Len(), len(ref.items))
	}
	if q.Peak() != ref.peak {
		t.Fatalf("%s: Peak = %d, want %d", at, q.Peak(), ref.peak)
	}
	if q.Shed() != ref.shed {
		t.Fatalf("%s: Shed = %d, want %d", at, q.Shed(), ref.shed)
	}
	if q.Closed() != ref.closed {
		t.Fatalf("%s: Closed = %v, want %v", at, q.Closed(), ref.closed)
	}
	if q.SojournSamples() != ref.sojourn.Count() {
		t.Fatalf("%s: SojournSamples = %d, want %d", at, q.SojournSamples(), ref.sojourn.Count())
	}
	if got, want := q.MeanSojourn(), ref.sojourn.Value(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("%s: MeanSojourn = %v, want %v", at, got, want)
	}
}

// TestSteadyStateHopAllocFree pins the ring's purpose: once a bounded
// queue has reached its working size, moving an item through it allocates
// nothing.
func TestSteadyStateHopAllocFree(t *testing.T) {
	q := New[int](8)
	for i := 0; i < 8; i++ { // reach full size once
		q.Enqueue(i)
	}
	for i := 0; i < 8; i++ {
		q.Dequeue()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := q.Enqueue(1); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Dequeue(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Enqueue+Dequeue allocates %v objects, want 0", allocs)
	}
}

// TestRingReleasesAndBounds checks the two ring invariants the public API
// cannot see: a bounded ring never grows past its capacity, and every slot
// outside the live window is zeroed, so a popped or shed item is not kept
// reachable by the queue.
func TestRingReleasesAndBounds(t *testing.T) {
	for _, capacity := range []int{1, 3, 5, 8} {
		for _, policy := range []OverloadPolicy{ShedOldest, ShedNewest} {
			q := NewWithPolicy[*int](capacity, policy)
			for i := 0; i < 50; i++ {
				v := i
				q.Enqueue(&v)
				if i%3 == 0 {
					q.TryDequeue()
				}
				if len(q.ring) > capacity {
					t.Fatalf("cap %d: ring grew to %d slots", capacity, len(q.ring))
				}
				for j, s := range q.ring {
					if (j-q.head+len(q.ring))%len(q.ring) >= q.n && (s.item != nil || s.at != 0) {
						t.Fatalf("cap %d %s: slot %d outside the live window still holds %v", capacity, policy, j, s)
					}
				}
			}
		}
	}
}
