package microbench

import (
	"strings"
	"testing"
)

// The gate covers the queue hop as well as the Begin/End rows, and ignores
// the contended row, which is measured but not gated.
func TestGateFailsOnAllocatingHop(t *testing.T) {
	clean := []Result{{Name: "BeginEnd"}, {Name: "QueueHop"}, {Name: "BeginEndContended8", AllocsPerOp: 3}}
	if err := Gate(clean); err != nil {
		t.Fatalf("clean results gated: %v", err)
	}
	bad := []Result{{Name: "BeginEnd"}, {Name: "QueueHop", AllocsPerOp: 2}}
	if err := Gate(bad); err == nil || !strings.Contains(err.Error(), "QueueHop") {
		t.Fatalf("allocating hop passed the gate: %v", err)
	}
}
