//go:build amd64

package platform

// cputicks reads the CPU's time-stamp counter; implemented in tsc_amd64.s.
// Returns raw ticks, converted to nanoseconds by the calibration in
// tscclock.go.
func cputicks() int64
