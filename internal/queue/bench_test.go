package queue

import "testing"

var hopSink int

// BenchmarkQueueHop is one uncontended stage-to-stage hop through a cap-8
// queue: an Enqueue and the Dequeue that takes the item back out, both with
// sojourn stamps. Steady state must report 0 allocs/op.
func BenchmarkQueueHop(b *testing.B) {
	b.ReportAllocs()
	q := New[int](8)
	sum := 0
	for i := 0; i < b.N; i++ {
		if err := q.Enqueue(i); err != nil {
			b.Fatal(err)
		}
		v, err := q.Dequeue()
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	hopSink = sum
}

// BenchmarkQueueHopContended is the same hop with the two ends on separate
// goroutines: one producer and one consumer sharing the queue lock, with
// the cap-8 bound blocking whichever side runs ahead.
func BenchmarkQueueHopContended(b *testing.B) {
	b.ReportAllocs()
	q := New[int](8)
	done := make(chan int)
	go func() {
		sum := 0
		for i := 0; i < b.N; i++ {
			v, err := q.Dequeue()
			if err != nil {
				break
			}
			sum += v
		}
		done <- sum
	}()
	for i := 0; i < b.N; i++ {
		if err := q.Enqueue(i); err != nil {
			b.Fatal(err)
		}
	}
	hopSink = <-done
}
