package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 50, end: 60}}, 80},
		{"overlapping parallel workers", []span{{start: 10, end: 30}, {start: 15, end: 40}, {start: 20, end: 25}}, 70},
		{"clipped to the parent", []span{{start: -10, end: 10}, {start: 90, end: 130}}, 80},
		{"outside and unclosed ignored", []span{{start: 200, end: 300}, {start: 40, end: -1}}, 100},
		{"fully covered", []span{{start: 0, end: 60}, {start: 50, end: 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesUsesOwnChildren(t *testing.T) {
	b := newSpanBuf(8)
	a := b.open(spanRunNest, 1, -1, 0)
	c := b.open(spanRunNest, 2, -1, 0)
	b.close(b.open(spanChunk, 1, a, 10), 40) // a's child
	b.close(b.open(spanChunk, 2, c, 0), 90)  // c's child
	b.close(b.open(spanServe, 1, a, 50), 60) // not a chunk: does not count
	b.close(a, 100)
	b.close(c, 100)
	h := newHist()
	selfTimes(b.closed(), spanRunNest, spanChunk, h)
	if h.count() != 2 {
		t.Fatalf("%d self times, want 2", h.count())
	}
	if lo, hi := h.quantile(0.5), h.quantile(1); lo != 10 || hi != 70 {
		t.Errorf("self times %v and %v, want 10 and 70", lo, hi)
	}
}

func TestSpanBufOverflow(t *testing.T) {
	b := newSpanBuf(2)
	b.open(spanItem, 1, -1, 0)
	b.open(spanItem, 2, -1, 0)
	i := b.open(spanItem, 3, -1, 0)
	if i != -1 || b.dropped.Load() != 1 {
		t.Fatalf("third open on a 2-span buffer = %d (dropped %d), want -1 (1)", i, b.dropped.Load())
	}
	b.close(i, 5) // must not panic
	if n := len(b.closed()); n != 2 {
		t.Fatalf("%d spans kept, want 2", n)
	}
}
