// Command perfbench is the repository's host-performance benchmark. It
// runs one workload — a fixed set of registry experiment cells — as a
// closed loop on runner.Run's workers, repeating the whole set for the
// given number of seconds, checks every simulated output against the
// committed goldens, and prints its metrics with their units. The last
// line of standard output is one JSON object. See README.md.
//
//	go run . --workload paper --seed 1 --seconds 20 --trace 0
//
// --trace 1 instead measures the per-layer metrics in a separate traced
// run on one worker: call spans, a CPU profile attributed to simulator
// layers, and exact counters; the spans and profiles are written under
// --out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"tmisa/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed for the order in which cells are submitted (never changes a simulated result)")
	seconds := fs.Float64("seconds", 10, "measure for this many seconds; the pass under way when they run out completes")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-trace"), "directory for the traced run's span trace and CPU profiles")
	update := fs.String("update-goldens", "", "run every workload once and write its outputs as the goldens to this file")
	probe := fs.Bool("peak-rss-probe", false, "run the cells one at a time and exit: the child process whose maxrss is peak_rss_mb")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := runtime.NumCPU()
	if *update != "" {
		if err := updateGoldens(*update, workers); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s) and --trace 0 or 1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if *probe {
		if err := peakRSSProbe(w); err != nil {
			fmt.Fprintln(stderr, "perfbench: peak-RSS probe:", err)
			return 1
		}
		return 0
	}
	goldens, err := loadGoldens(goldensJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := bench{w: w, goldens: goldens, rng: rand.New(rand.NewSource(*seed)), workers: workers,
		seconds: time.Duration(*seconds * float64(time.Second)), log: stderr}
	var res result
	if *traceFlag == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.perLayer(*out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout, w.Name); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type bench struct {
	w       workload
	goldens map[string]goldenRec
	rng     *rand.Rand
	workers int
	seconds time.Duration
	log     io.Writer
}

func (b *bench) pass(workers int, spans *spanLog, refs int) (pass, error) {
	p, err := runPass(b.w, passOpts{workers: workers, order: b.rng.Perm(len(b.w.cells)), golden: b.goldens, spans: spans, refs: refs})
	if err != nil {
		return p, err
	}
	for _, r := range p.results {
		if r.err != nil {
			fmt.Fprintln(b.log, "perfbench: FAIL", r.err)
		}
	}
	traced := ""
	if spans != nil {
		traced = " traced"
	}
	fmt.Fprintf(b.log, "perfbench: %s%s pass on %d worker(s): %.3fs, %d/%d cells failed\n",
		b.w.Name, traced, workers, p.wall.Seconds(), p.failed, len(p.results))
	return p, nil
}

// endToEnd measures peak RSS in a child process, runs one warm-up
// pass, then repeats untraced passes on every CPU until the time is up.
// Every pass deals refChunks reference chunks among its cells. The
// warm-up pass's cells are checked and counted like the others; its
// times are not used.
func (b *bench) endToEnd() (result, error) {
	rss, err := b.probePeakRSS()
	if err != nil {
		return result{}, err
	}
	warm, err := b.pass(b.workers, nil, refChunks)
	if err != nil {
		return result{}, err
	}
	var passes []pass
	for start := time.Now(); len(passes) == 0 || time.Since(start) < b.seconds; {
		p, err := b.pass(b.workers, nil, refChunks)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
	}
	return endToEndMetrics(warm, passes, rss), nil
}

// probePeakRSS runs peakRSSProbe in a fresh child process and returns
// the child's peak resident set size. The child runs on one OS thread
// (GOMAXPROCS=1) with every collection stop-the-world
// (GODEBUG=gcstoptheworld=1), so that no allocation races the
// collector's marking and the peak heap repeats from run to run. The
// probe runs before this process grows: a child's maxrss starts from its
// parent's at exec.
func (b *bench) probePeakRSS() (uint64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", b.w.Name, "--peak-rss-probe")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GODEBUG=gcstoptheworld=1")
	cmd.Stderr = b.log
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("peak-RSS probe: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("peak-RSS probe: no rusage")
	}
	return uint64(ru.Maxrss) * 1024, nil // Linux reports KiB
}

// perLayer runs one untraced pass on every CPU (for the runner's busy
// share), then alternates untraced and traced passes on one worker until
// the time is up; the difference of their wall times is the tracing
// overhead.
func (b *bench) perLayer(out string) (result, error) {
	full, err := b.pass(b.workers, nil, 0)
	if err != nil {
		return result{}, err
	}
	l := layerRun{full: full, spans: newSpanLog()}
	var profiles [][]byte
	for start := time.Now(); len(l.traced) == 0 || time.Since(start) < b.seconds; {
		u, err := b.pass(1, nil, 0)
		if err != nil {
			return result{}, err
		}
		l.untraced = append(l.untraced, u)
		mark := l.spans.mark()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		t, err := b.pass(1, l.spans, 0)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		l.samples = append(l.samples, samples...)
		l.traced = append(l.traced, t)
		l.callSums = append(l.callSums, l.spans.sums(mark))
		l.calls = l.spans.durations(mark)
		profiles = append(profiles, prof.Bytes())
	}
	for _, n := range b.w.cpuCounts {
		l.machineMB = append(l.machineMB, machineMB(n))
	}
	if err := writeTraceFiles(out, b.w.Name, l.spans, profiles); err != nil {
		return result{}, err
	}
	res := layerMetrics(l, b.w.cpuCounts)
	res.notes = append(res.notes, fmt.Sprintf("spans and CPU profiles written to %s", out))
	return res, nil
}

func writeTraceFiles(dir, name string, spans *spanLog, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := spans.writeChrome(&buf, "perfbench "+name); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".spans.json"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	for i, p := range profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.cpu%d.pprof", name, i)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSProbe runs the workload's cells one at a time in registry order
// and, after each, collects the garbage and returns the freed memory to
// the OS, so the process's peak is the largest cell's own peak rather
// than an accident of which cells overlapped, when the collector last
// ran or what the scavenger had yet to return. Cell failures are left to
// the measured passes, which count them.
func peakRSSProbe(w workload) error {
	for _, c := range w.cells {
		one := workload{Name: w.Name, cells: []cell{c}, observe: w.observe}
		if _, err := runPass(one, passOpts{workers: 1, order: []int{0}}); err != nil {
			return err
		}
		debug.FreeOSMemory()
	}
	return nil
}

// machineMB is the heap one freshly built default machine of n CPUs
// holds: the forced-GC heap delta around core.NewMachine.
func machineMB(n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cfg := core.DefaultConfig()
	cfg.CPUs = n
	m := core.NewMachine(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is what one benchmark run prints.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

// print writes the metrics as a table, then the JSON result line.
func (r result) print(w io.Writer, workload string) error {
	fmt.Fprintf(w, "# perfbench %s: %d cells attempted, %d failed\n", workload, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-24s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.note)
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dist describes a timing's samples: the median, the highest of the
// usual percentiles that has at least ten samples beyond it, and the
// sample count.
func dist(xs []float64, unit string) string {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := fmt.Sprintf("median %.6g %s of n=%d", median(s), unit, n)
	for _, p := range []float64{99.9, 99, 90, 75} {
		rank := int(p / 100 * float64(n)) // samples at or below the percentile
		if n-rank >= 10 && rank > 0 {
			return out + fmt.Sprintf(", p%g %.6g %s", p, s[rank-1], unit)
		}
	}
	return out + " (no percentile has ten samples beyond it)"
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func perPass(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func counts(ps []pass) (attempted, failed int) {
	for _, p := range ps {
		attempted += len(p.results)
		failed += p.failed
	}
	return attempted, failed
}

// refScaled is a pass's timings in reference seconds. How slowly the
// host ran during the pass is the median reference chunk's time over its
// nominal time, raised to refExponent; the median ignores the few chunks
// that a collection or the scheduler happened to interrupt. The chunks'
// own share is taken out first: their thread CPU time from the pass's
// CPU time, and their worker time, spread over the workers, from its
// wall time.
type refScaled struct{ wall, cpu, setup, run float64 }

func scaleToReference(p pass) refScaled {
	var walls, cpus []float64
	var wall, cpu time.Duration
	for _, r := range p.refs {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		wall += r.wall
		cpu += r.cpu
	}
	slowWall := math.Pow(median(walls)/refNominal.Seconds(), refExponent)
	slowCPU := math.Pow(median(cpus)/refNominalCPU.Seconds(), refExponent)
	return refScaled{
		wall:  (p.wall.Seconds() - wall.Seconds()/float64(p.workers)) / slowWall,
		cpu:   (p.cpu - cpu).Seconds() / slowCPU,
		setup: p.work.setup.Seconds() / slowWall,
		run:   p.work.run.Seconds() / slowWall,
	}
}

// endToEndMetrics derives the end-to-end metrics from untraced passes:
// medians over the timed passes of their timings in reference seconds,
// the process's peak RSS, and the share of all cells, warm-up included,
// whose outputs were correct.
func endToEndMetrics(warm pass, ps []pass, rss uint64) result {
	var r result
	r.attempted, r.failed = counts(append([]pass{warm}, ps...))
	scaled := make([]refScaled, len(ps))
	for i, p := range ps {
		scaled[i] = scaleToReference(p)
	}
	each := func(f func(p pass, s refScaled) float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = f(p, scaled[i])
		}
		return out
	}
	walls := each(func(_ pass, s refScaled) float64 { return s.wall })
	setups := each(func(_ pass, s refScaled) float64 { return s.setup })
	cpus := each(func(_ pass, s refScaled) float64 { return s.cpu })
	cyc := each(func(p pass, s refScaled) float64 { return ratio(float64(p.work.cycles), s.run) })
	ins := each(func(p pass, s refScaled) float64 { return ratio(float64(p.work.insns), s.run) })
	allocs := perPass(ps, func(p pass) float64 { return float64(p.allocBytes) / (1 << 20) })
	mallocs := perPass(ps, func(p pass) float64 { return float64(p.mallocs) })
	var cellWalls, machineSetups, rawWalls, refWalls, refCPUs []float64
	for _, p := range ps {
		cellWalls = append(cellWalls, seconds(p.cellWall)...)
		machineSetups = append(machineSetups, seconds(p.work.machineSetups)...)
		rawWalls = append(rawWalls, p.wall.Seconds())
		for _, ref := range p.refs {
			refWalls = append(refWalls, ref.wall.Seconds())
			refCPUs = append(refCPUs, ref.cpu.Seconds())
		}
	}
	r.notes = append(r.notes,
		fmt.Sprintf("%d timed pass(es) after a warm-up pass, on %d worker(s); raw pass wall: %s", len(ps), ps[0].workers, dist(rawWalls, "s")),
		fmt.Sprintf("reference chunk (nominal %v wall, %v CPU): wall %s; CPU %s",
			refNominal, refNominalCPU, dist(refWalls, "s"), dist(refCPUs, "s")),
		"raw cell wall: "+dist(cellWalls, "s"),
		"raw machine set-up (NewMachine+Setup): "+dist(machineSetups, "s"),
		fmt.Sprintf("timings below are in reference seconds: raw seconds / (median reference chunk time in the pass / nominal)^%g", refExponent))
	r.metrics = []metric{
		{"wall_s", median(walls), "s", dist(walls, "s")},
		{"setup_s", median(setups), "s", dist(setups, "s")},
		{"cpu_s", median(cpus), "s", dist(cpus, "s")},
		{"sim_cycles_per_s", median(cyc), "1/s", fmt.Sprintf("median of n=%d passes", len(ps))},
		{"sim_insns_per_s", median(ins), "1/s", fmt.Sprintf("median of n=%d passes", len(ps))},
		{"peak_rss_mb", float64(rss) / (1 << 20), "MiB", "maxrss of a fresh process running the cells one at a time"},
		{"alloc_mb", median(allocs), "MiB", fmt.Sprintf("median of n=%d passes", len(ps))},
		{"host_allocs", median(mallocs), "count", fmt.Sprintf("median of n=%d passes", len(ps))},
		{"ok_frac", 1 - ratio(float64(r.failed), float64(r.attempted)), "frac",
			fmt.Sprintf("%d of %d cells failed", r.failed, r.attempted)},
	}
	return r
}

// layerRun is what the traced run collected.
type layerRun struct {
	full      pass // untraced, every CPU
	untraced  []pass
	traced    []pass
	spans     *spanLog
	callSums  []map[string]time.Duration // per traced pass
	calls     map[string][]time.Duration // last traced pass, per call span
	samples   []sample
	machineMB []float64 // per workload CPU count
}

// callNames are the public calls the traced run wraps in spans, with
// the per-layer metric each gives.
var callNames = []struct{ span, metric string }{
	{"core.new", "core.new_s"},
	{"workloads.setup", "workloads.setup_s"},
	{"core.run", "core.run_s"},
	{"workloads.verify", "workloads.verify_s"},
	{"oracle.check", "oracle.check_s"},
	{"oracle.replay", "oracle.replay_s"},
	{"tracebin.encode", "tracebin.encode_s"},
	{"tracebin.decode", "tracebin.decode_s"},
	{"tmprof.from_stream", "tmprof.from_stream_s"},
}

// profiledLayers are the simulator packages whose self time the CPU
// profile reports.
var profiledLayers = []string{"sim", "cache", "mem", "tm", "core", "bus", "btree"}

// layerMetrics derives the per-layer metrics. Exact counts come from the
// first traced pass (every pass simulates the same machines); times are
// medians over traced passes.
func layerMetrics(l layerRun, cpuCounts []int) result {
	var r result
	all := append(append([]pass{l.full}, l.untraced...), l.traced...)
	r.attempted, r.failed = counts(all)
	nt := len(l.traced)
	callMedian := func(name string) float64 {
		xs := make([]float64, nt)
		for i, s := range l.callSums {
			xs[i] = s[name].Seconds()
		}
		return median(xs)
	}
	for _, c := range callNames {
		note := "no calls"
		if ds := l.calls[c.span]; len(ds) > 0 {
			note = "per call: " + dist(seconds(ds), "s")
		}
		r.metrics = append(r.metrics, metric{c.metric, callMedian(c.span), "s",
			fmt.Sprintf("median over n=%d traced passes; %s", nt, note)})
	}

	a := attribute(l.samples)
	profNote := fmt.Sprintf("of %d CPU-profile samples", a.samples)
	for _, layer := range profiledLayers {
		r.metrics = append(r.metrics, metric{layer + ".self_frac", a.frac(a.layerSamples[layer]), "frac", profNote})
	}
	r.metrics = append(r.metrics,
		metric{"sim.handoff_frac", a.frac(a.handoff), "frac", profNote},
		metric{"core.spin_frac", a.frac(a.spin), "frac", profNote},
		metric{"runtime.gc_frac", a.frac(a.gc), "frac", profNote},
		metric{"profile.samples", float64(a.samples), "count", fmt.Sprintf("over n=%d traced passes", nt)},
	)

	w := l.traced[0].work
	c := w.counters
	acc := float64(c.L1Hits + c.L2Hits + c.Misses)
	wall := func(ps []pass) float64 { return median(perPass(ps, func(p pass) float64 { return p.wall.Seconds() })) }
	events := float64(w.streamEvents)
	r.metrics = append(r.metrics,
		metric{"cache.accesses", acc, "count", "L1 hits + L2 hits + misses"},
		metric{"cache.l1_hit_ratio", ratio(float64(c.L1Hits), acc), "ratio", ""},
		metric{"cache.miss_ratio", ratio(float64(c.Misses), acc), "ratio", ""},
		metric{"cache.evicts", float64(c.Evicts), "count", ""},
		metric{"cache.overflow", float64(c.Overflow), "count", ""},
		metric{"cache.ns_per_access", ratio(float64(a.layerNS["cache"]), acc*float64(nt)), "ns", "cache self time / accesses"},
		metric{"tm.begins", float64(c.TxBegins), "count", ""},
		metric{"tm.commit_ratio", ratio(float64(c.TxCommits), float64(c.TxBegins)), "ratio", "commits / begins"},
		metric{"tm.closed_commits", float64(c.ClosedCommits), "count", ""},
		metric{"tm.merged_lines", float64(c.MergedLines), "count", ""},
		metric{"tm.wasted_cycle_frac", ratio(float64(c.WastedCycles), float64(w.cpuCycles)), "frac", "rolled-back cycles / CPU cycles"},
		metric{"bus.cycles", float64(c.BusCycles), "cycles", ""},
		metric{"bus.token_wait_cycles", float64(c.TokenWaitCycle), "cycles", ""},
		metric{"core.capacity_aborts", float64(c.CapacityAborts), "count", ""},
		metric{"core.fallbacks", float64(c.Fallbacks), "count", ""},
		metric{"core.stm_commits", float64(c.StmCommits), "count", ""},
		metric{"mem.resident_pages", float64(w.residentPages), "pages", "summed over machines"},
		metric{"oracle.events", float64(w.oracleEvents), "count", "consumed by the live oracle"},
		metric{"oracle.ns_per_event", ratio(callMedian("oracle.replay")*1e9, events), "ns", "offline replay time / stream events"},
		metric{"tracebin.events", events, "count", ""},
		metric{"tracebin.bytes_per_event", ratio(float64(w.streamBytes), events), "B", ""},
		metric{"tracebin.decode_ns_per_event", ratio(callMedian("tracebin.decode")*1e9, events), "ns", ""},
		metric{"tmprof.ns_per_event", ratio(callMedian("tmprof.from_stream")*1e9, events), "ns", ""},
	)

	var busy time.Duration
	for _, d := range l.full.cellWall {
		busy += d
	}
	var sizes []string
	for i, n := range cpuCounts {
		sizes = append(sizes, fmt.Sprintf("%d CPUs %.3f MiB", n, l.machineMB[i]))
	}
	r.notes = append(r.notes, "heap of one fresh default machine: "+strings.Join(sizes, ", "))
	r.metrics = append(r.metrics,
		metric{"runner.busy_frac", ratio(busy.Seconds(), float64(l.full.workers)*l.full.wall.Seconds()), "frac",
			fmt.Sprintf("untraced pass on %d worker(s)", l.full.workers)},
		metric{"core.machine_mb", l.machineMB[len(l.machineMB)-1], "MiB",
			fmt.Sprintf("one fresh machine of %d CPUs", cpuCounts[len(cpuCounts)-1])},
		metric{"trace.overhead_s", wall(l.traced) - wall(l.untraced), "s",
			fmt.Sprintf("median traced minus median untraced wall on one worker, n=%d each", nt)},
	)
	return r
}
