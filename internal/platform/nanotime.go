package platform

import _ "unsafe" // for go:linkname

// nanotime reads the runtime's raw monotonic clock. NowNanos is read twice
// per monitored section and once per queue hop, and going through time.Now
// (wall + monotonic) or even time.Since (monotonic plus a time.Time
// construction and flag checks) adds measurable overhead on top of the
// kernel's clock_gettime. Linking the runtime's monotonic reader directly is
// the established escape hatch (it is on the linker's sanctioned list) and
// gives a bare nanosecond counter that NowNanos rebases onto a wall-clock
// epoch when the TSC is unavailable, and that calibration measures the TSC
// against.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64
