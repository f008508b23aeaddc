//go:build !amd64

package platform

// cputicks has no implementation on this architecture; returning 0 makes
// calibration decline the TSC path and the hot-path clock falls back to the
// runtime's monotonic reader.
func cputicks() int64 { return 0 }
