package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a process resource snapshot for one end of a measured window.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
	numGC   uint32
	steal   int64 // host steal ticks, machine-wide (stealTicks)
}

func takeUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		steal:   stealTicks(),
	}
}

// threadCPU is the calling OS thread's user + system CPU time; call it
// only from a goroutine locked to its thread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for a valid who
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks is the machine's cumulative stolen CPU time in clock ticks
// (the steal column of /proc/stat), or -1 where it cannot be read. On a
// virtual machine it shows how much of a run the host took away.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// provenance is the host and build a result was measured on.
type provenance struct {
	Nproc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	Commit     string            `json:"commit"`
	SourceSHA  string            `json:"source_sha256"`
	Seed       int64             `json:"seed"`
	Workload   string            `json:"workload"`
	Params     map[string]string `json:"params"`
}

func hostProvenance(seed int64, workload string, params map[string]string) provenance {
	return provenance{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     vcsRevision(),
		SourceSHA:  sourceDigest("."),
		Seed:       seed,
		Workload:   workload,
		Params:     params,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, when it was built
// inside a git checkout; a plain source tree has none, and sourceDigest
// identifies the code instead.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// hidden and build directories), in path order, so two results name the
// same code exactly when their digests match.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
