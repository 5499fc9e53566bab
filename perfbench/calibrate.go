package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host is shared: within minutes, other tenants' load moves the
// clock and the cache and memory latency this process gets, and with
// them every pass's wall time, by more than the benchmark's bounds. So
// every timed pass of the untraced run also times a short fixed kernel
// of the benchmark's own before each engine call and after the last,
// and each call's wall time is scaled to the reference speed: multiplied
// by refCalibration over the mean of the kernel's times on either side
// of the call. The set-up samples are scaled the same way. The kernel
// allocates nothing and shares no code with the program, so a change to
// the program moves the scaled times as it moves the raw ones; the raw
// times stay in the report line and in bench.wall_raw_s.

// refCalibration is the kernel's time at the reference speed. On the
// reference host (2-vCPU Intel Xeon, Go 1.24) the kernel took 9.8 to
// 13.2 ms (5th to 95th percentile of 1579 samples, median 11.0 ms).
const refCalibration = 10 * time.Millisecond

const (
	chainSteps = 1_700_000 // dependent xorshift steps: feels the clock
	walkTable  = 1 << 20   // 4 MB of uint32, past the per-core caches
	walkSteps  = 40_000    // dependent loads: feel cache and memory latency
)

// calibrator holds the kernel's table: one random cycle through every
// slot, so a walk is a chain of loads the prefetchers cannot predict.
// The table is mapped outside the Go heap, so it leaves the program's
// garbage collection as it is.
type calibrator struct {
	next []uint32
	sink uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 4*walkTable, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), walkTable)}
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle.
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c.next) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run times the kernel once.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	x := c.sink | 1
	for i := 0; i < chainSteps; i++ {
		x = xorshift(x)
	}
	p := uint32(x % walkTable)
	for i := 0; i < walkSteps; i++ {
		p = c.next[p]
	}
	c.sink = x + uint64(p)
	return time.Since(start)
}

// scale converts a time measured between kernel times before and after
// to the reference speed.
func scale(d, before, after time.Duration) float64 {
	return d.Seconds() * 2 * refCalibration.Seconds() / (before + after).Seconds()
}
