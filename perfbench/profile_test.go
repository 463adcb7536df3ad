package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// TestAttributionRules pins the layer rules on fixed stacks, innermost
// frame first.
func TestAttributionRules(t *testing.T) {
	const (
		lookup = "tmisa/internal/cache.(*level).lookup"
		access = "tmisa/internal/core.(*Proc).access"
		yield  = "tmisa/internal/sim.(*Engine).yieldEvent"
		pYield = "tmisa/internal/sim.(*P).Yield"
		spin   = "tmisa/internal/core.(*Proc).fbSpinWait"
		run    = "main.runCell"
	)
	for _, c := range []struct {
		name                string
		stack               []string
		layer               string
		handoff, isSpin, gc bool
	}{
		{"innermost internal frame wins", []string{lookup, access, pYield, run}, "cache", false, false, false},
		{"runtime leaf under cache", []string{"runtime.memclrNoHeapPointers", "tmisa/internal/cache.newLevel", access}, "cache", false, false, false},
		{"subpackage folds into its layer", []string{"tmisa/internal/analysis/tmlint.run"}, "analysis", false, false, false},
		{"no simulator frame", []string{"runtime.futex", "runtime.notesleep"}, "", false, false, false},
		{"channel send under sim is a handoff", []string{"runtime.lock2", "runtime.chansend", "runtime.chansend1", yield, pYield, access}, "sim", true, false, false},
		{"park under sim is a handoff", []string{"runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1", yield, pYield}, "sim", true, false, false},
		{"ready under sim is a handoff", []string{"runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend", yield}, "sim", true, false, false},
		{"scheduler after a park is a handoff", []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "", true, false, false},
		{"scheduler after a preemption is not", []string{"runtime.findRunnable", "runtime.schedule", "runtime.goschedImpl", "runtime.gopreempt_m", "runtime.newstack", "runtime.morestack"}, "", false, false, false},
		{"sim's own work is not a handoff", []string{"tmisa/internal/sim.(*calendar).peek", yield, pYield}, "sim", false, false, false},
		{"channel op under a non-sim frame is not a handoff", []string{"runtime.chansend1", "tmisa/internal/runner.Run.func1"}, "runner", false, false, false},
		{"channel op above sim is not a handoff", []string{"tmisa/internal/sim.(*calendar).peek", "runtime.chanrecv", yield}, "sim", false, false, false},
		{"spin anywhere on the stack", []string{"runtime.chansend", yield, pYield, "tmisa/internal/core.(*Proc).tick", spin, access}, "sim", true, true, false},
		{"spin as the innermost frame", []string{spin, access}, "core", false, true, false},
		{"background GC", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "", false, false, true},
		{"mark assist under cache", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "tmisa/internal/cache.newLevel"}, "cache", false, false, true},
	} {
		if got := layerOf(c.stack); got != c.layer {
			t.Errorf("%s: layer %q, want %q", c.name, got, c.layer)
		}
		if got := isHandoff(c.stack); got != c.handoff {
			t.Errorf("%s: handoff %v, want %v", c.name, got, c.handoff)
		}
		if got := isSpin(c.stack); got != c.isSpin {
			t.Errorf("%s: spin %v, want %v", c.name, got, c.isSpin)
		}
		if got := isGC(c.stack); got != c.gc {
			t.Errorf("%s: gc %v, want %v", c.name, got, c.gc)
		}
	}

	a := attribute([]sample{
		{stack: []string{lookup, access}, count: 3, ns: 30},
		{stack: []string{"runtime.chansend", yield}, count: 1, ns: 10},
	})
	if a.samples != 4 || a.layerSamples["cache"] != 3 || a.layerNS["cache"] != 30 || a.handoff != 1 {
		t.Errorf("attribute: %+v", a)
	}
	if f := a.frac(a.layerSamples["sim"]); f != 0.25 {
		t.Errorf("sim frac %v, want 0.25", f)
	}
}

//go:noinline
func spinForProfile(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseProfile decodes a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if fn == "tmisa/perfbench.spinForProfile" || fn == "main.spinForProfile" {
				spinning += s.count
				break
			}
		}
	}
	if total == 0 || spinning == 0 {
		t.Fatalf("%d samples, %d in spinForProfile", total, spinning)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
