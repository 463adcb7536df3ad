package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The shared host this benchmark was written on changes speed by up to
// 2x in plateaus that last from seconds to over an hour, for CPU time
// as much as for wall time. A pass's raw timings therefore say as much
// about the host's moment as about the simulator. So an end-to-end pass deals
// refChunks chunks of a fixed reference kernel, which does not touch the
// simulator, among its cells, and its timings are scaled by how slowly
// the kernel ran: a timing is reported in reference seconds, the seconds
// it would have taken on a host where one chunk takes refNominal of wall
// time and refNominalCPU of CPU time. A change to the simulator moves
// the cells and not the kernel, so it moves the scaled timing by the
// same share as the raw one.

// refNominal and refNominalCPU are one chunk's median wall and thread
// CPU time inside a paper pass on a quiet 2-vCPU Xeon VM; they only fix
// the unit.
const (
	refNominal    = 1900 * time.Microsecond
	refNominalCPU = 1900 * time.Microsecond
)

// refExponent is how much more than the kernel the simulator slows on
// that VM's slow plateaus: when a chunk takes s times its nominal time,
// a pass takes about s^refExponent times its quiet time. Measured there,
// s was 1.6 to 1.8 while passes took 1.8 to 2.3 times as long, a
// log-log slope of 1.2 to 1.45 depending on the workload. It is a fit:
// a slowdown that hits the kernel and the simulator alike, such as a
// lower clock, is over-corrected.
const refExponent = 1.3

const (
	refChunks = 16      // reference chunks dealt among a pass's cells
	refSteps  = 1100000 // kernel steps per chunk
)

// refTime is one chunk's wall time and its thread's CPU time.
type refTime struct{ wall, cpu time.Duration }

// timeRefChunk runs one reference chunk on a locked OS thread, so that
// the thread's CPU time is the chunk's own.
func timeRefChunk() refTime {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPUTime()
	start := time.Now()
	refChunk()
	return refTime{time.Since(start), threadCPUTime() - cpu0}
}

var refSink atomic.Uint64

// refChunk is integer mixing and dependent loads and stores in a 64 KiB
// table, which outgrows L1. It allocates nothing, so the pass's
// allocation metrics stay the cells' own.
func refChunk() {
	var table [1 << 13]uint64
	x := uint64(1)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x + table[x%uint64(len(table))]) % uint64(len(table))
		table[j] += x
	}
	refSink.Add(x + table[x%uint64(len(table))])
}

// refsBefore is how many of refs reference chunks are dealt just before
// cell i of n in submission order: chunk j goes before cell ⌊j·n/refs⌋,
// which spreads the chunks evenly.
func refsBefore(i, n, refs int) int {
	count := 0
	for j := 0; j < refs; j++ {
		if j*n/refs == i {
			count++
		}
	}
	return count
}

// threadCPUTime is the calling OS thread's CPU time so far, read from
// CLOCK_THREAD_CPUTIME_ID, which unlike getrusage is not rounded to
// scheduler ticks.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}
