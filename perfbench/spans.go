package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// spanKind names what a span brackets: a call into one layer's public
// function, made from the benchmark's own code.
type spanKind uint8

const (
	spanItem    spanKind = iota // one item or request, submit to completion
	spanStage                   // a pipeline stage body (PipeStage.Fn)
	spanServe                   // the server's outer functor, dequeue to return
	spanRunNest                 // Worker.RunNest on the inner DOALL
	spanChunk                   // one inner chunk's work between Begin and End
)

var spanNames = [...]string{"item", "stage", "serve", "run_nest", "chunk"}

func (k spanKind) String() string { return spanNames[k] }

// span is one traced interval on the benchmark clock (ns since the
// benchmark's epoch). parent indexes the span that caused it, -1 for a
// root; spans of one item share item.
type span struct {
	start, end int64
	item       uint64
	parent     int32
	kind       spanKind
}

// spanBuf keeps spans in memory for the whole traced phase, in a buffer
// allocated up front so recording never allocates. Each open claims a
// distinct slot with one atomic add, so concurrent workers never share a
// slot; a full buffer counts the overflow and hands out -1, which close
// ignores. Read it only after every recorder has finished.
type spanBuf struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, capacity)} }

// open starts a span and returns its index for close and for children.
func (b *spanBuf) open(kind spanKind, item uint64, parent int32, start int64) int32 {
	i := b.n.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return -1
	}
	b.spans[i] = span{start: start, end: -1, item: item, parent: parent, kind: kind}
	return int32(i)
}

func (b *spanBuf) close(i int32, end int64) {
	if i >= 0 {
		b.spans[i].end = end
	}
}

// closed returns the recorded spans that were both opened and closed.
func (b *spanBuf) closed() []span {
	n := b.n.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel workers) or
// run past the parent; only their union inside the parent counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if c.end >= 0 && hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
		} else if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	covered += cur.hi - cur.lo
	return parent.end - parent.start - covered
}

// selfTimes records into h the self time of every closed span of kind,
// taking as children its closed spans of kind child.
func selfTimes(spans []span, kind, child spanKind, h *hist) {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.kind == child && s.end >= 0 && s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for i, s := range spans {
		if s.kind == kind && s.end >= 0 {
			h.record(selfTime(s, kids[int32(i)]))
		}
	}
}

// writeSpans dumps the spans as JSON lines (index, name, start/end ns,
// parent index, item id) once the run is over.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		fmt.Fprintf(w, `{"i":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"item":%d}`+"\n",
			i, s.kind, s.start, s.end, s.parent, s.item)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
