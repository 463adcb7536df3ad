package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"tmisa/internal/runner"
)

// cellResult is one cell's outcome in one pass.
type cellResult struct {
	key      string
	err      error
	primary  primary
	machines []machineRec
	work     cellWork
}

// pass is one closed-loop run of a workload: every cell dealt once to
// runner.Run's workers, each worker taking the next cell when its last
// one finishes.
type pass struct {
	wall, cpu           time.Duration
	allocBytes, mallocs uint64
	workers             int
	refs                []refTime       // reference chunks dealt among the cells
	cellWall            []time.Duration // per cell, in submission order
	results             []cellResult    // per cell, in workload order
	failed              int
	work                cellWork // summed over the cells
}

type passOpts struct {
	workers int
	order   []int                // submission order: a permutation of the cell indexes
	golden  map[string]goldenRec // nil: record outputs without checking them
	spans   *spanLog             // nil: untraced
	refs    int                  // reference chunks to deal among the cells
}

// runPass runs one pass. A cell that panics or whose outputs differ from
// its golden is counted as failed; the pass goes on.
func runPass(w workload, o passOpts) (pass, error) {
	p := pass{workers: o.workers, results: make([]cellResult, len(w.cells))}
	passSpan := 0
	if o.spans != nil {
		passSpan = o.spans.newID()
	}
	p.refs = make([]refTime, o.refs)
	var rcells []runner.Cell
	isRef := map[int]bool{}
	for i, ci := range o.order {
		for k := refsBefore(i, len(o.order), o.refs); k > 0; k-- {
			j := len(isRef)
			isRef[len(rcells)] = true
			rcells = append(rcells, runner.Cell{Label: fmt.Sprintf("reference/%d", j), Run: func() runner.Metrics {
				p.refs[j] = timeRefChunk()
				return runner.Metrics{}
			}})
		}
		ci := ci
		rcells = append(rcells, runner.Cell{Label: w.cells[ci].Key, Run: func() runner.Metrics {
			p.results[ci] = runCell(w, w.cells[ci], passSpan, o)
			return runner.Metrics{}
		}})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	res, err := runner.Run(rcells, o.workers, nil)
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		// runCell recovers every cell panic, so this is a benchmark bug.
		return p, fmt.Errorf("runner: %w", err)
	}
	if o.spans != nil {
		o.spans.add(span{Name: w.Name, ID: passSpan, Start: start, Dur: p.wall})
	}
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	for i, m := range res {
		if !isRef[i] {
			p.cellWall = append(p.cellWall, time.Duration(m.WallNS))
		}
	}
	for _, r := range p.results {
		if r.err != nil {
			p.failed++
		}
		p.work.add(r.work)
	}
	return p, nil
}

func runCell(w workload, c cell, passSpan int, o passOpts) cellResult {
	x := &cellExec{key: c.Key, observe: w.observe, spans: o.spans}
	r := cellResult{key: c.Key}
	start := time.Now()
	if o.spans != nil {
		x.cellSpan = o.spans.newID()
	}
	pprof.Do(context.Background(), pprof.Labels("workload", w.Name, "cell", c.Key), func(context.Context) {
		r.primary, r.err = runSafely(c, x)
	})
	if o.spans != nil {
		o.spans.add(span{Name: c.Key, Label: c.Key, ID: x.cellSpan, Parent: passSpan, Cell: x.cellSpan,
			Start: start, Dur: time.Since(start)})
	}
	r.machines, r.work = x.machines, x.work
	if r.err == nil && o.golden != nil {
		r.err = checkGolden(o.golden, r)
	}
	return r
}

// runSafely runs a cell, turning a simulation panic (a Verify or oracle
// failure, MaxCycles, deadlock, a stream that does not round-trip) into
// the cell's error.
func runSafely(c cell, x *cellExec) (p primary, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", c.Key, r)
		}
	}()
	return c.Run(x), nil
}

func (w *cellWork) add(o cellWork) {
	w.setup += o.setup
	w.run += o.run
	w.machineSetups = append(w.machineSetups, o.machineSetups...)
	w.cycles += o.cycles
	w.insns += o.insns
	w.cpuCycles += o.cpuCycles
	w.counters.Add(&o.counters)
	w.residentPages += o.residentPages
	w.oracleEvents += o.oracleEvents
	w.streamEvents += o.streamEvents
	w.streamBytes += o.streamBytes
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
