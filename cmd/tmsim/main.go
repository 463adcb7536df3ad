// Command tmsim runs one evaluation workload on the simulated
// transactional CMP and prints its statistics report.
//
// Usage:
//
//	tmsim -workload mp3d -cpus 8 -engine lazy
//	tmsim -workload SPECjbb2000-open -flatten
//	tmsim -workload swim -sequential
//	tmsim -workload mp3d -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile and -memprofile write host CPU and allocation profiles of
// the run for `go tool pprof`; an unwritable path exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"tmisa/internal/cache"
	"tmisa/internal/core"
	"tmisa/internal/hostprof"
	"tmisa/internal/tm"
	"tmisa/internal/tmprof"
	"tmisa/internal/trace"
	"tmisa/internal/tracebin"
	"tmisa/internal/workloads"
)

func registry() map[string]func() workloads.Workload {
	return map[string]func() workloads.Workload{
		"barnes":             func() workloads.Workload { return workloads.DefaultBarnes() },
		"fmm":                func() workloads.Workload { return workloads.DefaultFMM() },
		"moldyn":             func() workloads.Workload { return workloads.DefaultMoldyn() },
		"mp3d":               func() workloads.Workload { return workloads.DefaultMP3D() },
		"swim":               func() workloads.Workload { return workloads.DefaultSwim() },
		"tomcatv":            func() workloads.Workload { return workloads.DefaultTomcatv() },
		"water":              func() workloads.Workload { return workloads.DefaultWater() },
		"SPECjbb2000-closed": func() workloads.Workload { return workloads.DefaultJBB(workloads.JBBClosed) },
		"SPECjbb2000-open":   func() workloads.Workload { return workloads.DefaultJBB(workloads.JBBOpen) },
		"io-transactional":   func() workloads.Workload { return workloads.DefaultIOBench(false) },
		"io-serialized":      func() workloads.Workload { return workloads.DefaultIOBench(true) },
	}
}

func main() {
	var (
		name       = flag.String("workload", "mp3d", "workload name (-list to enumerate)")
		cpus       = flag.Int("cpus", 8, "number of simulated CPUs")
		engine     = flag.String("engine", "lazy", "HTM engine: lazy (TCC write-buffer) or eager (undo-log)")
		flatten    = flag.Bool("flatten", false, "flatten nested transactions (conventional HTM baseline)")
		sequential = flag.Bool("sequential", false, "run the sequential baseline (1 CPU, no transactions)")
		scheme     = flag.String("scheme", "associativity", "cache nesting scheme: associativity or multitrack")
		moss       = flag.Bool("moss-hosking", false, "use Moss-Hosking open-nesting semantics (ablation)")
		list       = flag.Bool("list", false, "list workloads and exit")
		traceN     = flag.Int("trace", 0, "print the last N structured trace events")
		oracleOn   = flag.Bool("oracle", false, "check the run with the serializability/strong-atomicity oracle")
		profile    = flag.Bool("profile", false, "collect a tmprof conflict-attribution profile (see -profile-out)")
		profileOut = flag.String("profile-out", "tmprof.json", "profile destination: Perfetto-loadable trace-event JSON (render with cmd/tmprof)")
		traceOut   = flag.String("trace-out", "", "stream the run's complete event stream to this .tmtrace binary file (exact attribution at any run length; read with cmd/tmprof)")
		fallback   = flag.String("fallback", "none", "hybrid-engine STM fallback: none, serial (global-lock irrevocable), or tl2 (versioned-lock)")
		budget     = flag.Int("retry-budget", 0, "HTM attempts before a contended transaction falls back (0 = engine default; needs -fallback)")
		maxWrite   = flag.Int("max-write-lines", 0, "bound speculative write footprint to N lines (capacity aborts past it; 0 = unbounded)")
		maxRead    = flag.Int("max-read-lines", 0, "bound speculative read footprint to N lines (0 = unbounded)")
		cpuProfile = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (read with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a host allocation profile of the run to this file when it ends (read with go tool pprof)")
	)
	flag.Parse()

	reg := registry()
	if *list {
		names := make([]string, 0, len(reg))
		for n := range reg {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	mk, ok := reg[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "tmsim: unknown workload %q (use -list)\n", *name)
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Flatten = *flatten
	switch *engine {
	case "lazy":
		cfg.Engine = core.Lazy
	case "eager":
		cfg.Engine = core.Eager
	default:
		fmt.Fprintf(os.Stderr, "tmsim: unknown engine %q\n", *engine)
		os.Exit(2)
	}
	switch *scheme {
	case "associativity":
		cfg.Cache.Scheme = cache.Associativity
	case "multitrack":
		cfg.Cache.Scheme = cache.Multitrack
	default:
		fmt.Fprintf(os.Stderr, "tmsim: unknown scheme %q\n", *scheme)
		os.Exit(2)
	}
	if *moss {
		cfg.OpenSemantics = tm.MossHoskingOpen
	}
	switch *fallback {
	case "none":
	case "serial":
		cfg.Fallback = core.SerialFallback
	case "tl2":
		cfg.Fallback = core.TL2Fallback
	default:
		fmt.Fprintf(os.Stderr, "tmsim: unknown fallback %q (none, serial, tl2)\n", *fallback)
		os.Exit(2)
	}
	cfg.HTMRetryBudget = *budget
	if *maxWrite > 0 || *maxRead > 0 {
		// Bounding capacity without a fallback livelocks on any
		// deterministic over-capacity footprint; require the hybrid engine.
		if cfg.Fallback == core.NoFallback {
			fmt.Fprintf(os.Stderr, "tmsim: -max-write-lines/-max-read-lines need -fallback serial|tl2 (bounded HTM without a fallback livelocks on over-capacity footprints)\n")
			os.Exit(2)
		}
		cfg.Cache.BoundedSpec = true
		cfg.Cache.MaxWriteLines = *maxWrite
		cfg.Cache.MaxReadLines = *maxRead
	}

	cfg.Oracle = *oracleOn

	stopProfiles, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
			os.Exit(1)
		}
	}()

	granule := cfg.Cache.LineSize
	if cfg.WordTracking {
		granule = 0
	}
	var col *tmprof.Collector
	if *profile {
		col = tmprof.NewCollector(tmprof.Options{LineSize: granule, Config: cfg.Describe()})
	}
	var tw *tracebin.Writer
	var tf *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
			os.Exit(1)
		}
		tf = f
		tw = tracebin.NewWriter(f, "tmsim")
	}
	// streamRun opens a run section on the binary stream, nil without
	// -trace-out (so it slots into the fan-out like the other sinks).
	streamRun := func(label string) func(trace.Event) {
		if tw == nil {
			return nil
		}
		return tw.StartRun(label, cfg.Describe(), granule)
	}

	w := mk()
	if *sequential {
		// Execute checks the oracle internally (panics on a violation).
		r := workloads.ExecuteSequentialTraced(w, cfg, func(m *core.Machine) {
			label := w.Name() + "/seq"
			if t := fanout(col.StartRun(label), streamRun(label)); t != nil {
				m.SetTracer(t)
			}
		})
		fmt.Printf("%s (sequential)\n%s", w.Name(), r)
		writeProfile(col, *profileOut)
		closeTrace(tw, tf, *traceOut)
		return
	}
	var log *trace.Log
	var mach *core.Machine
	if *traceN > 0 {
		log = trace.NewLog(*traceN)
	}
	attach := func(m *core.Machine) {
		mach = m
		// One tracer slot, up to three sinks: the bounded ring (-trace),
		// the profiler (-profile), and the binary stream (-trace-out).
		var ring func(trace.Event)
		if log != nil {
			ring = log.Record
		}
		if t := fanout(ring, col.StartRun(w.Name()), streamRun(w.Name())); t != nil {
			m.SetTracer(t)
		}
	}
	r := workloads.ExecuteTraced(w, cfg, *cpus, attach)
	fmt.Printf("%s (%d CPUs, %s engine, flatten=%v)\n%s", w.Name(), *cpus, *engine, *flatten, r)
	if *oracleOn {
		// ExecuteTraced already panicked if the oracle rejected the run.
		fmt.Printf("oracle: clean (%d events checked)\n", mach.OracleEvents())
	}
	if log != nil {
		fmt.Printf("--- last %d trace events ---\n%s", *traceN, log)
	}
	writeProfile(col, *profileOut)
	closeTrace(tw, tf, *traceOut)
}

// fanout combines the non-nil sinks into one tracer (nil when none).
func fanout(sinks ...func(trace.Event)) func(trace.Event) {
	live := sinks[:0]
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return func(e trace.Event) {
			for _, s := range live {
				s(e)
			}
		}
	}
}

// closeTrace flushes and closes the binary event stream, if any. Notes
// go to stderr so stdout (the report) is identical with and without
// -trace-out.
func closeTrace(tw *tracebin.Writer, f *os.File, path string) {
	if tw == nil {
		return
	}
	err := tw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmsim: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tmsim: streamed events to %s (render with: go run ./cmd/tmprof %s)\n", path, path)
}

// writeProfile saves the collected profile, if any. The note goes to
// stderr so stdout (the report) is identical with and without -profile.
func writeProfile(col *tmprof.Collector, path string) {
	prof := col.Profile()
	if prof == nil {
		return
	}
	if err := prof.WriteTraceFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tmsim: wrote profile to %s (load in Perfetto, or render with: go run ./cmd/tmprof %s)\n", path, path)
}
