package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"tmisa/internal/core"
	"tmisa/internal/oracle"
	"tmisa/internal/stats"
	"tmisa/internal/tmprof"
	"tmisa/internal/trace"
	"tmisa/internal/tracebin"
	"tmisa/internal/workloads"
)

// primary is what the registry reports for a cell (the simulated fields
// of runner.Metrics), so goldens can be compared with the BENCH baseline.
type primary struct {
	Cycles       uint64 `json:"cycles"`
	Rollbacks    uint64 `json:"rollbacks"`
	Instructions uint64 `json:"instructions"`
	Violations   uint64 `json:"violations"`
}

func fromReport(rep *stats.Report) primary {
	return primary{
		Cycles:       rep.TotalCycles,
		Rollbacks:    rep.Machine.Rollbacks,
		Instructions: rep.Machine.Instructions,
		Violations:   rep.Machine.Violations,
	}
}

// machineRec is the exact output of one simulated machine: its
// simulated run time, its aggregate counters and its behavioural
// fingerprint.
type machineRec struct {
	Cycles      uint64         `json:"cycles"`
	Counters    stats.Counters `json:"counters"`
	Fingerprint uint64         `json:"fingerprint"`
}

// cellWork is what one cell's machines did, summed over the machines.
// Host times cover only the calls named; counts are deterministic.
type cellWork struct {
	setup, run    time.Duration // NewMachine+Setup, Machine.Run
	machineSetups []time.Duration
	cycles, insns uint64
	cpuCycles     uint64 // summed over every CPU of every machine
	counters      stats.Counters
	residentPages uint64
	oracleEvents  uint64
	streamEvents  uint64
	streamBytes   uint64
}

// cellExec runs one cell's machines the way workloads.ExecuteTraced and
// the registry's custom cells do, timing each public call and, when
// spans is set, recording it as a span under the cell's span.
type cellExec struct {
	key      string
	observe  bool
	spans    *spanLog
	cellSpan int

	machines []machineRec
	work     cellWork
	events   []trace.Event // the observed machine's event stream
}

// call runs fn as one call span; the span is recorded on exit, panics
// included.
func (x *cellExec) call(name string, fn func()) (d time.Duration) {
	start := time.Now()
	defer func() {
		d = time.Since(start)
		if x.spans != nil {
			x.spans.add(span{Name: name, Label: x.key, Cell: x.cellSpan, Parent: x.cellSpan,
				ID: x.spans.newID(), Start: start, Dur: d})
		}
	}()
	fn()
	return d
}

func (x *cellExec) newMachine(cfg core.Config) *core.Machine {
	if x.observe {
		cfg.Oracle = true
	}
	var m *core.Machine
	d := x.call("core.new", func() { m = core.NewMachine(cfg) })
	x.work.setup += d
	x.work.machineSetups = append(x.work.machineSetups, d)
	if x.observe {
		x.events = x.events[:0]
		m.SetTracer(func(e trace.Event) { x.events = append(x.events, e) })
	}
	return m
}

func (x *cellExec) setup(w workloads.Workload, m *core.Machine, cpus int) {
	d := x.call("workloads.setup", func() { w.Setup(m, cpus) })
	x.work.setup += d
	x.work.machineSetups[len(x.work.machineSetups)-1] += d
}

func (x *cellExec) run(m *core.Machine, bodies ...func(*core.Proc)) *stats.Report {
	var rep *stats.Report
	x.work.run += x.call("core.run", func() { rep = m.Run(bodies...) })
	return rep
}

// execute is workloads.ExecuteTraced with every call timed.
func (x *cellExec) execute(w workloads.Workload, cfg core.Config, cpus int) *stats.Report {
	cfg.CPUs = cpus
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 3_000_000_000
	}
	m := x.newMachine(cfg)
	x.setup(w, m, cpus)
	bodies := make([]func(*core.Proc), cpus)
	for i := range bodies {
		bodies[i] = func(p *core.Proc) { w.Run(p, cpus) }
	}
	rep := x.run(m, bodies...)
	x.call("workloads.verify", func() {
		if err := w.Verify(m); err != nil {
			panic(fmt.Sprintf("workloads: %s failed verification (%s, flatten=%v): %v",
				w.Name(), cfg.Engine, cfg.Flatten, err))
		}
	})
	x.finish(m)
	return rep
}

// executeSequential is workloads.ExecuteSequentialTraced.
func (x *cellExec) executeSequential(w workloads.Workload, cfg core.Config) *stats.Report {
	cfg.Sequential = true
	cfg.Flatten = false
	return x.execute(w, cfg, 1)
}

// figure5 is workloads.MeasureFigure5: sequential, flattened and nested
// runs of one workload instance.
func (x *cellExec) figure5(w workloads.Workload, cfg core.Config, cpus int) (seq, flat, nested *stats.Report) {
	seq = x.executeSequential(w, cfg)
	flatCfg := cfg
	flatCfg.Flatten = true
	flat = x.execute(w, flatCfg, cpus)
	cfg.Flatten = false
	nested = x.execute(w, cfg, cpus)
	return seq, flat, nested
}

// finish closes a machine after its run: the oracle's end-of-run check
// when attached, the exact-output record, and on observed workloads the
// stream pipeline.
func (x *cellExec) finish(m *core.Machine) {
	cfg := m.Config()
	if cfg.Oracle {
		x.call("oracle.check", func() {
			if err := m.CheckOracle(); err != nil {
				panic(fmt.Sprintf("workloads: failed the serializability oracle (%s, flatten=%v): %v",
					cfg.Engine, cfg.Flatten, err))
			}
		})
	}
	rep := m.Report()
	x.machines = append(x.machines, machineRec{Cycles: rep.TotalCycles, Counters: rep.Machine, Fingerprint: m.Fingerprint()})
	x.work.cycles += rep.TotalCycles
	x.work.insns += rep.Machine.Instructions
	x.work.counters.Add(&rep.Machine)
	for _, c := range rep.PerCPU {
		x.work.cpuCycles += c.Cycles
	}
	x.work.residentPages += uint64(m.Mem().Footprint())
	x.work.oracleEvents += m.OracleEvents()
	if x.observe {
		x.stream(m)
	}
}

// stream encodes the machine's captured events as a one-run tracebin
// stream in memory, decodes it back (every event must round-trip), and
// runs the two stream consumers over it: tmprof.FromStream and the
// offline oracle, whose verdict must be clean.
func (x *cellExec) stream(m *core.Machine) {
	cfg := m.Config()
	lineSize := cfg.Cache.LineSize
	if cfg.WordTracking {
		lineSize = 0
	}
	label := fmt.Sprintf("%s#%d", x.key, len(x.machines))
	var buf bytes.Buffer
	x.call("tracebin.encode", func() {
		w := tracebin.NewWriter(&buf, "perfbench")
		sink := w.StartRun(label, cfg.Describe(), lineSize)
		for _, e := range x.events {
			sink(e)
		}
		if err := w.Flush(); err != nil {
			panic(fmt.Sprintf("tracebin: encode %s: %v", label, err))
		}
	})
	reader := func() *tracebin.Reader {
		r, err := tracebin.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			panic(fmt.Sprintf("tracebin: open %s: %v", label, err))
		}
		return r
	}
	x.call("tracebin.decode", func() {
		r := reader()
		i := 0
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				panic(fmt.Sprintf("tracebin: decode %s: %v", label, err))
			}
			if rec.Start {
				continue
			}
			if i >= len(x.events) || rec.Event != x.events[i] {
				panic(fmt.Sprintf("tracebin: %s: decoded event %d differs from the one encoded", label, i))
			}
			i++
		}
		if i != len(x.events) {
			panic(fmt.Sprintf("tracebin: %s: decoded %d of %d events", label, i, len(x.events)))
		}
	})
	x.call("tmprof.from_stream", func() {
		p, err := tmprof.FromStream(reader())
		if err != nil {
			panic(fmt.Sprintf("tmprof: %s: %v", label, err))
		}
		if len(p.Runs) != 1 {
			panic(fmt.Sprintf("tmprof: %s: profile holds %d runs, want 1", label, len(p.Runs)))
		}
	})
	x.call("oracle.replay", func() {
		verdict, runCfg, err := oracle.Replay(oracleConfig(cfg), reader())
		switch {
		case err != nil:
			panic(fmt.Sprintf("oracle: replay %s: %v", label, err))
		case verdict != nil:
			panic(fmt.Sprintf("oracle: replay %s: %v", label, verdict))
		case runCfg != cfg.Describe():
			panic(fmt.Sprintf("oracle: replay %s: stream config %q, ran %q", label, runCfg, cfg.Describe()))
		}
	})
	x.work.streamEvents += uint64(len(x.events))
	x.work.streamBytes += uint64(buf.Len())
}

// oracleConfig is the checker configuration core.NewMachine attaches
// live for cfg.
func oracleConfig(cfg core.Config) oracle.Config {
	model := oracle.ModelSC
	switch cfg.MemModel {
	case core.MemTSO:
		model = oracle.ModelTSO
	case core.MemRelaxed:
		model = oracle.ModelRelaxed
	}
	return oracle.Config{
		Lazy:         cfg.Engine == core.Lazy,
		LineSize:     cfg.Cache.LineSize,
		WordTracking: cfg.WordTracking,
		Model:        model,
	}
}
