package workloads

import (
	"bytes"
	"testing"

	"tmisa/internal/cache"
	"tmisa/internal/core"
	"tmisa/internal/mem"
	"tmisa/internal/tracebin"
)

// suite returns fresh instances of every Figure 5 workload.
func suite() []Workload {
	return []Workload{
		DefaultBarnes(),
		DefaultFMM(),
		DefaultMoldyn(),
		DefaultMP3D(),
		DefaultSwim(),
		DefaultTomcatv(),
		DefaultWater(),
		DefaultJBB(JBBClosed),
		DefaultJBB(JBBOpen),
	}
}

// TestWorkloadsVerifySequential: every workload's invariants hold on the
// sequential baseline (Execute panics on Verify failure).
func TestWorkloadsVerifySequential(t *testing.T) {
	for _, w := range suite() {
		t.Run(w.Name(), func(t *testing.T) {
			rep := ExecuteSequential(w, core.DefaultConfig())
			if rep.TotalCycles == 0 {
				t.Fatal("sequential run did no work")
			}
			if rep.Machine.TxBegins != 0 {
				t.Fatal("sequential baseline created transactions")
			}
		})
	}
}

// TestWorkloadsVerifyParallelNested: correctness under full nesting at
// 8 CPUs with the lazy engine (the paper's platform).
func TestWorkloadsVerifyParallelNested(t *testing.T) {
	for _, w := range suite() {
		t.Run(w.Name(), func(t *testing.T) {
			rep := Execute(w, core.DefaultConfig(), 8)
			if rep.Machine.TxCommits == 0 {
				t.Fatal("no transactions committed")
			}
		})
	}
}

// TestWorkloadsVerifyParallelFlattened: correctness with flattening.
func TestWorkloadsVerifyParallelFlattened(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Flatten = true
	for _, w := range suite() {
		t.Run(w.Name(), func(t *testing.T) {
			Execute(w, cfg, 8)
		})
	}
}

// TestWorkloadsVerifyEager: correctness under the eager/undo-log engine.
// Scientific subset only: the SPECjbb2000 warehouse thrashes under
// requester-wins eager resolution without software contention management
// (see EXPERIMENTS.md, ablation A2).
func TestWorkloadsVerifyEager(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Engine = core.Eager
	for _, w := range []Workload{DefaultMP3D(), DefaultWater(), DefaultMoldyn(), DefaultBarnes()} {
		t.Run(w.Name(), func(t *testing.T) {
			Execute(w, cfg, 4)
		})
	}
}

// TestWorkloadsDeterministic: identical configurations produce identical
// cycle counts.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, mk := range []func() Workload{
		func() Workload { return DefaultMP3D() },
		func() Workload { return DefaultJBB(JBBClosed) },
	} {
		a := Execute(mk(), core.DefaultConfig(), 8)
		b := Execute(mk(), core.DefaultConfig(), 8)
		if a.TotalCycles != b.TotalCycles || a.Machine.Violations != b.Machine.Violations {
			t.Fatalf("%s nondeterministic: %d/%d vs %d/%d cycles/violations",
				mk().Name(), a.TotalCycles, a.Machine.Violations, b.TotalCycles, b.Machine.Violations)
		}
	}
}

// TestFigure5Shape asserts the qualitative Figure 5 results the paper
// reports: nesting never hurts materially, mp3d is by far the largest
// win, and SPECjbb2000-open beats its flattened baseline.
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure5 shape check runs the full suite")
	}
	rows := map[string]Figure5Row{}
	for _, w := range suite() {
		rows[w.Name()] = MeasureFigure5(w, core.DefaultConfig(), 8)
	}
	for name, r := range rows {
		if r.SpeedupOverFlat < 0.90 {
			t.Errorf("%s: nesting hurt by more than 10%% (%.2fx)", name, r.SpeedupOverFlat)
		}
	}
	mp3d := rows["mp3d"].SpeedupOverFlat
	if mp3d < 3.0 {
		t.Errorf("mp3d nesting speedup = %.2fx, want the dominant bar (>= 3x; paper: 4.93x)", mp3d)
	}
	for name, r := range rows {
		if name != "mp3d" && r.SpeedupOverFlat > mp3d {
			t.Errorf("%s (%.2fx) exceeds mp3d (%.2fx); mp3d must dominate Figure 5", name, r.SpeedupOverFlat, mp3d)
		}
	}
	if open := rows["SPECjbb2000-open"].SpeedupOverFlat; open < 1.05 {
		t.Errorf("SPECjbb2000-open over flat = %.2fx, want a clear win (paper: 2.22x)", open)
	}
	if rows["SPECjbb2000-open"].SpeedupOverFlat < rows["SPECjbb2000-closed"].SpeedupOverFlat {
		t.Errorf("open (%.2fx) must beat closed (%.2fx), as in the paper",
			rows["SPECjbb2000-open"].SpeedupOverFlat, rows["SPECjbb2000-closed"].SpeedupOverFlat)
	}
}

// TestIOScalingShape asserts the Section 7.2 result: transactional I/O
// scales with CPUs while the serialize-on-I/O baseline saturates.
func TestIOScalingShape(t *testing.T) {
	tx, serial := MeasureIOScaling([]int{1, 4, 16}, core.DefaultConfig())
	if tx.Values[1] < 3.0 {
		t.Errorf("transactional I/O at 4 CPUs = %.2fx, want near-linear (>= 3x)", tx.Values[1])
	}
	if tx.Values[2] < 8.0 {
		t.Errorf("transactional I/O at 16 CPUs = %.2fx, want continued scaling (>= 8x)", tx.Values[2])
	}
	if serial.Values[2] > 5.0 {
		t.Errorf("serialized I/O at 16 CPUs = %.2fx, want saturation (< 5x)", serial.Values[2])
	}
	if tx.Values[2] < 2*serial.Values[2] {
		t.Errorf("transactional (%.2fx) should beat serialized (%.2fx) by >= 2x at 16 CPUs",
			tx.Values[2], serial.Values[2])
	}
}

// TestCondSyncCompletesOversubscribed: the watch/retry scheduler handles
// more threads than CPUs without lost wakeups.
func TestCondSyncCompletesOversubscribed(t *testing.T) {
	for _, pairs := range []int{2, 8, 16} {
		w := DefaultCondSyncBench(pairs, false)
		cfg := core.DefaultConfig()
		cfg.MaxCycles = 100_000_000
		Execute(w, cfg, 5) // panics on lost wakeups (livelock guard) or bad data
	}
}

// TestCondSyncPollingBaseline: the polling variant produces the same
// handoffs.
func TestCondSyncPollingBaseline(t *testing.T) {
	for _, pairs := range []int{2, 8} {
		w := DefaultCondSyncBench(pairs, true)
		Execute(w, core.DefaultConfig(), 5)
	}
}

// TestIOBenchExactLog: the transactional log contains exactly one record
// per operation despite violations.
func TestIOBenchExactLog(t *testing.T) {
	w := DefaultIOBench(false)
	rep := Execute(w, core.DefaultConfig(), 8)
	if rep.Machine.Syscalls == 0 {
		t.Fatal("no syscalls recorded")
	}
}

// TestJBBOpenReducesViolations: the open-nested order counter must remove
// a substantial share of the flat variant's violations.
func TestJBBOpenReducesViolations(t *testing.T) {
	flatCfg := core.DefaultConfig()
	flatCfg.Flatten = true
	flat := Execute(DefaultJBB(JBBOpen), flatCfg, 8)
	open := Execute(DefaultJBB(JBBOpen), core.DefaultConfig(), 8)
	if open.Machine.Violations >= flat.Machine.Violations {
		t.Errorf("open nesting did not reduce violations: %d -> %d",
			flat.Machine.Violations, open.Machine.Violations)
	}
}

// TestMP3DContainment: in nested mp3d, inner rollbacks must dominate
// outer rollbacks (the containment Figure 5 measures).
func TestMP3DContainment(t *testing.T) {
	rep := Execute(DefaultMP3D(), core.DefaultConfig(), 8)
	in, out := rep.Machine.InnerRollbacks, rep.Machine.OuterRollbacks
	if in == 0 {
		t.Fatal("no inner rollbacks; mp3d needs cell contention")
	}
	if in < 2*out {
		t.Errorf("inner rollbacks (%d) should dominate outer (%d) in nested mp3d", in, out)
	}
}

// TestChunkPartition covers the work-partitioning helper.
func TestChunkPartition(t *testing.T) {
	for _, tc := range []struct{ n, cpus int }{{10, 3}, {8, 8}, {5, 8}, {0, 4}, {7, 1}} {
		covered := make([]bool, tc.n)
		for id := 0; id < tc.cpus; id++ {
			lo, hi := chunk(tc.n, tc.cpus, id)
			if lo > hi {
				t.Fatalf("chunk(%d,%d,%d) = [%d,%d)", tc.n, tc.cpus, id, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("item %d covered twice (n=%d cpus=%d)", i, tc.n, tc.cpus)
				}
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("item %d not covered (n=%d cpus=%d)", i, tc.n, tc.cpus)
			}
		}
	}
}

// TestRNGDeterministicAndSpread: the workload PRNG is reproducible and
// roughly uniform.
func TestRNGDeterministicAndSpread(t *testing.T) {
	r1, r2 := newRNG(42), newRNG(42)
	buckets := make([]int, 8)
	for i := 0; i < 8000; i++ {
		a, b := r1.next(), r2.next()
		if a != b {
			t.Fatal("rng not deterministic")
		}
		buckets[a%8]++
	}
	for i, n := range buckets {
		if n < 800 || n > 1200 {
			t.Fatalf("bucket %d has %d of 8000 (poor spread)", i, n)
		}
	}
}

// TestBarrierSynchronizesPhases: no CPU may begin phase k+1 before all
// arrive at phase k.
func TestBarrierSynchronizesPhases(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CPUs = 4
	m := core.NewMachine(cfg)
	bar := newBarrier(m, 4)
	arrivals := make([][]uint64, 3)
	worker := func(p *core.Proc) {
		for phase := 0; phase < 3; phase++ {
			p.Tick(100 * (p.ID() + 1)) // staggered work
			bar.wait(p, phase)
			arrivals[phase] = append(arrivals[phase], p.Now())
		}
	}
	m.Run(worker, worker, worker, worker)
	for phase := 0; phase < 2; phase++ {
		maxThis := uint64(0)
		for _, t := range arrivals[phase] {
			if t > maxThis {
				maxThis = t
			}
		}
		for _, tn := range arrivals[phase+1] {
			if tn < maxThis-500 {
				t.Fatalf("phase %d exit at %d before phase %d finished at %d", phase+1, tn, phase, maxThis)
			}
		}
	}
}

// TestVerifiersDetectCorruption: each workload's Verify must actually
// catch a corrupted final image (validating the validators).
func TestVerifiersDetectCorruption(t *testing.T) {
	for _, mk := range []func() Workload{
		func() Workload { return DefaultMP3D() },
		func() Workload { return DefaultSwim() },
		func() Workload { return DefaultWater() },
		func() Workload { return DefaultMoldyn() },
		func() Workload { return DefaultBarnes() },
		func() Workload { return DefaultFMM() },
		func() Workload { return DefaultTomcatv() },
		func() Workload { return DefaultJBB(JBBClosed) },
	} {
		w := mk()
		t.Run(w.Name(), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.CPUs = 2
			cfg.MaxCycles = 3_000_000_000
			m := core.NewMachine(cfg)
			w.Setup(m, 2)
			bodies := []func(*core.Proc){
				func(p *core.Proc) { w.Run(p, 2) },
				func(p *core.Proc) { w.Run(p, 2) },
			}
			m.Run(bodies...)
			if err := w.Verify(m); err != nil {
				t.Fatalf("clean run failed verification: %v", err)
			}
			// Corrupt the data region wholesale and re-verify: bumping
			// every nonzero word must break at least one checked
			// invariant in every workload.
			corrupted := 0
			for a := uint64(0x1_0000); a < 0x8_0000; a += 8 {
				if v := m.Mem().Load(mem.Addr(a)); v != 0 {
					m.Mem().Store(mem.Addr(a), v+1)
					corrupted++
				}
			}
			if corrupted == 0 {
				t.Skip("no nonzero words found to corrupt")
			}
			if err := w.Verify(m); err == nil {
				t.Fatal("verifier accepted a corrupted image")
			}
		})
	}
}

// TestCustomWorkloadParameters: non-default sizes still verify, guarding
// the kernels' partitioning and index arithmetic.
func TestCustomWorkloadParameters(t *testing.T) {
	mp := DefaultMP3D()
	mp.Particles, mp.Steps, mp.Group, mp.Cells = 40, 2, 3, 5
	sw := DefaultSwim()
	sw.N, sw.Steps = 12, 2
	tv := DefaultTomcatv()
	tv.N, tv.Steps = 10, 2
	wa := DefaultWater()
	wa.Molecules, wa.ChunkSize = 30, 7
	md := DefaultMoldyn()
	md.Particles, md.ChunkSize, md.Bins = 26, 5, 3
	bn := DefaultBarnes()
	bn.Bodies, bn.Chunk, bn.Regions = 30, 7, 3
	fm := DefaultFMM()
	fm.Cells, fm.Chunk = 30, 7
	jb := DefaultJBB(JBBOpen)
	jb.TotalOps, jb.Customers, jb.StockSKUs = 40, 32, 16

	for _, w := range []Workload{mp, sw, tv, wa, md, bn, fm, jb} {
		t.Run(w.Name(), func(t *testing.T) {
			// Odd CPU counts exercise uneven partitions.
			Execute(w, core.DefaultConfig(), 3)
		})
	}
}

// TestWorkloadsOnWordTracking: the suite stays correct at word
// granularity.
func TestWorkloadsOnWordTracking(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.WordTracking = true
	for _, w := range []Workload{DefaultMP3D(), DefaultMoldyn(), DefaultJBB(JBBClosed)} {
		t.Run(w.Name(), func(t *testing.T) {
			Execute(w, cfg, 8)
		})
	}
}

// TestWorkloadsOnMultitrackScheme: the suite stays correct under the
// multi-tracking cache scheme with eager merging.
func TestWorkloadsOnMultitrackScheme(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Cache.Scheme = cache.Multitrack
	cfg.Cache.LazyMerge = false
	for _, w := range []Workload{DefaultMP3D(), DefaultSwim(), DefaultJBB(JBBOpen)} {
		t.Run(w.Name(), func(t *testing.T) {
			Execute(w, cfg, 8)
		})
	}
}

// TestOracleIsPureObservation: attaching the oracle must not perturb the
// simulation — cycle counts and every machine counter stay identical with
// and without it. EXPERIMENTS.md asserts this ("pure observation"); this
// test enforces it, so oracle-checked runs measure the same machine the
// figures report. The same holds for a tracebin stream attached through
// Machine.SetTracer: its writer runs inside the simulated CPUs' contexts
// on every event, and must be just as invisible to timing.
// The sweep covers every memory model: under TSO and the relaxed
// reordering window the oracle additionally validates store-buffer
// axioms, and that extra checking must be just as invisible.
func TestOracleIsPureObservation(t *testing.T) {
	for _, model := range []core.MemModelKind{core.MemSC, core.MemTSO, core.MemRelaxed} {
		for _, mk := range []func() Workload{
			func() Workload { return DefaultMP3D() },
			func() Workload { return DefaultJBB(JBBOpen) },
		} {
			base := core.DefaultConfig()
			base.MemModel = model
			plain := Execute(mk(), base, 8)
			cfg := base
			cfg.Oracle = true
			cfg.OracleHistory = true
			checked := Execute(mk(), cfg, 8)
			if plain.TotalCycles != checked.TotalCycles {
				t.Errorf("%s under %s: oracle changed cycles: %d -> %d",
					mk().Name(), model, plain.TotalCycles, checked.TotalCycles)
			}
			if plain.Machine != checked.Machine {
				t.Errorf("%s under %s: oracle changed machine counters:\nplain:   %+v\nchecked: %+v",
					mk().Name(), model, plain.Machine, checked.Machine)
			}

			var stream bytes.Buffer
			tw := tracebin.NewWriter(&stream, "workloads-test")
			traced := ExecuteTraced(mk(), base, 8, func(m *core.Machine) {
				m.SetTracer(tw.StartRun(mk().Name(), base.Describe(), base.Cache.LineSize))
			})
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, events, err := tracebin.Validate(bytes.NewReader(stream.Bytes())); err != nil || events == 0 {
				t.Fatalf("%s under %s: stream invalid or empty (%d events): %v", mk().Name(), model, events, err)
			}
			if plain.TotalCycles != traced.TotalCycles {
				t.Errorf("%s under %s: tracebin stream changed cycles: %d -> %d",
					mk().Name(), model, plain.TotalCycles, traced.TotalCycles)
			}
			if plain.Machine != traced.Machine {
				t.Errorf("%s under %s: tracebin stream changed machine counters:\nplain:  %+v\ntraced: %+v",
					mk().Name(), model, plain.Machine, traced.Machine)
			}
		}
	}
}

// TestGoldenCycleCounts pins exact simulated cycle counts for the default
// configurations. The simulator is fully deterministic (including across
// processes: no Go map iteration order reaches simulated behaviour), so
// any change here is a real behavioural change of the model — which is
// fine, but must be deliberate: update the numbers together with
// EXPERIMENTS.md.
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		mk   func() Workload
		want uint64
	}{
		{func() Workload { return DefaultMP3D() }, 60026},
		{func() Workload { return DefaultJBB(JBBClosed) }, 162263},
	}
	for _, g := range golden {
		w := g.mk()
		rep := Execute(w, core.DefaultConfig(), 8)
		if rep.TotalCycles != g.want {
			t.Errorf("%s: %d cycles, golden %d (deliberate model change? update goldens + EXPERIMENTS.md)",
				w.Name(), rep.TotalCycles, g.want)
		}
	}
}
