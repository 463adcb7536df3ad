package core

import (
	"runtime"
	"testing"
)

// TestFreshMachineHeap bounds what a machine retains before it runs one
// instruction. Each CPU's cache hierarchy gets its lines on first fill,
// so construction must not scale with cache capacity (a fully built
// L1+L2 of the paper's platform is about half a MiB per CPU).
func TestFreshMachineHeap(t *testing.T) {
	const cpus = 256
	const perCPU = 16 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMachine(testConfig(cpus, Lazy))
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained > cpus*perCPU {
		t.Fatalf("fresh %d-CPU machine retains %d KiB of heap (%d B per CPU), want at most %d KiB per CPU",
			cpus, retained>>10, retained/cpus, perCPU>>10)
	}
	t.Logf("fresh %d-CPU machine retains %d KiB (%d B per CPU)", cpus, retained>>10, retained/cpus)
}
