package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"dope"
	"dope/internal/replay"
)

// readLog loads a snapshot log recorded with -record, reporting failures on
// stderr.
func readLog(path string) ([]*replay.Entry, bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-trace:", err)
		return nil, false
	}
	defer f.Close()
	entries, err := replay.ReadLog(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dope-trace:", err)
		return nil, false
	}
	return entries, true
}

// catalogNames lists the mechanisms -replay accepts.
func catalogNames() string {
	var names []string
	for n := range dope.MechanismCatalog(0, 0) {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// runReplay feeds a recorded snapshot log to the named catalog mechanism
// and prints the decisions it would have made. Returns the process exit
// code: 2 for an unknown mechanism, 1 for an unreadable log.
func runReplay(path, name string, threads int, watts float64) int {
	mk := dope.MechanismCatalog(threads, watts)[name]
	if mk == nil {
		fmt.Fprintf(os.Stderr, "dope-trace: unknown mechanism %q (available: %s)\n", name, catalogNames())
		return 2
	}
	entries, ok := readLog(path)
	if !ok {
		return 1
	}
	m := mk()
	decisions := replay.Replay(entries, m)
	fmt.Printf("replayed %d snapshots through %s: %d decisions\n",
		len(entries), m.Name(), len(decisions))
	for _, d := range decisions {
		fmt.Printf("  t=%8.3fs snapshot %3d -> %s\n", d.TimeSec, d.Index, d.Config)
	}
	if len(decisions) == 0 {
		fmt.Println("  (the mechanism held the recorded configuration throughout)")
	}
	return 0
}
