// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 7), printing the same rows and series the paper
// reports. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured numbers.
//
// The experiment matrices are defined in internal/runner and sharded
// across worker goroutines (-parallel); each cell simulates on its own
// isolated machine and tables are assembled in matrix order, so the
// output is byte-identical at every parallelism level. Alongside the
// human tables, each experiment writes its metrics as
// BENCH_<exp>.json (-benchdir; see EXPERIMENTS.md for the schema).
//
// Usage:
//
//	experiments                 # run everything
//	experiments -exp figure5    # one experiment: overheads, figure5, io,
//	                            # condsync, schemes, engines, opensem, depth,
//	                            # granularity, scaling, hybrid, scale
//
// -cpuprofile and -memprofile write host CPU and allocation profiles of
// the whole run for `go tool pprof`; stdout is the same with or without
// them.
//
// Exit codes: 0 on success, 1 when a cell fails (workload verification,
// oracle violation, I/O error), 2 on usage errors (an unwritable
// -cpuprofile or -memprofile path among them).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"tmisa/internal/hostprof"
	"tmisa/internal/runner"
	"tmisa/internal/sim"
	"tmisa/internal/tmprof"
	"tmisa/internal/tracebin"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored so tests can invoke it in-process
// and assert on output and exit codes.
func run(argv []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (all, overheads, figure5, io, condsync, schemes, engines, opensem, depth, granularity, scaling, hybrid, scale)")
	cpus := fs.Int("cpus", 8, "CPU count for figure5-style experiments")
	oracle := fs.Bool("oracle", false, "oracle-check every workload run (fails the run on a violation; condsync/opensem excepted)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker goroutines to shard each experiment's cell matrix over")
	benchdir := fs.String("benchdir", ".", "directory for machine-readable BENCH_<exp>.json results (empty disables)")
	profile := fs.Bool("profile", false, "collect a tmprof conflict-attribution profile of every cell (see -profile-out)")
	profileOut := fs.String("profile-out", "tmprof.json", "profile destination: Perfetto-loadable trace-event JSON (render with cmd/tmprof)")
	traceOut := fs.String("trace-out", "", "stream every cell's complete event stream to this .tmtrace binary file (exact attribution at any run length; read with cmd/tmprof)")
	trendFile := fs.String("trend", "", "perf-trend history file (JSONL): append one record per experiment after running")
	trendCheck := fs.Bool("trend-check", false, "with -trend: gate instead of appending — compare this run against the history's last record and exit 1 on a regression")
	trendReport := fs.Bool("trend-report", false, "with -trend: render the perf-over-time report from the history and exit (runs nothing)")
	trendThreshold := fs.Float64("trend-threshold", 5, "cycle-regression threshold in percent for -trend-check (total and per-cell)")
	trendAllocThreshold := fs.Float64("trend-alloc-threshold", 25, "host-allocation regression threshold in percent for -trend-check (generous: alloc counts are host-dependent)")
	quiet := fs.Bool("q", false, "suppress per-cell progress on stderr")
	schedName := fs.String("sched", "", "simulation scheduler: eventloop (default) or goroutine (the legacy engine, kept one release as the differential oracle)")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of the run to this file (read with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a host allocation profile of the run to this file when it ends (read with go tool pprof)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if (*trendCheck || *trendReport) && *trendFile == "" {
		fmt.Fprintln(stderr, "experiments: -trend-check/-trend-report require -trend <file>")
		return 2
	}
	if *trendReport {
		recs, err := runner.ReadTrend(*trendFile)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
		runner.RenderTrend(stdout, recs)
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected arguments %q\n", fs.Args())
		return 2
	}
	sched, err := sim.ParseSched(*schedName)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}

	var names []string
	if *exp == "all" {
		names = runner.Order
	} else {
		if _, ok := runner.Find(*exp); !ok {
			fmt.Fprintf(stderr, "experiments: unknown experiment %q\n", *exp)
			return 2
		}
		names = []string{*exp}
	}
	stopProfiles, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	ctx := runner.Context{CPUs: *cpus, Oracle: *oracle, Profile: *profile, Trace: *traceOut != "", Sched: sched}
	capture := *profile || ctx.Trace
	var profiles []*tmprof.Profile
	var trendRecs []runner.TrendRecord
	var history []runner.TrendRecord
	if *trendFile != "" {
		if recs, err := runner.ReadTrend(*trendFile); err == nil {
			history = recs
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
	}
	for _, name := range names {
		e, _ := runner.Find(name)
		if *exp == "all" {
			fmt.Fprintf(stdout, "==== %s ====\n", name)
		}
		cells := e.Cells(ctx)
		var progress func(done, total int)
		if !*quiet {
			progress = func(done, total int) {
				fmt.Fprintf(stderr, "%s: %d/%d cells\n", name, done, total)
			}
		}
		start := time.Now()
		var before runtime.MemStats
		if *trendFile != "" {
			runtime.ReadMemStats(&before)
		}
		res, err := runner.Run(cells, *parallel, progress)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", name, err)
			return 1
		}
		if *trendFile != "" {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			trendRecs = append(trendRecs, runner.NewTrendRecord(name, ctx, res, after.Mallocs-before.Mallocs))
		}
		e.Render(ctx, res, stdout)
		if *benchdir != "" {
			bf := runner.NewBenchFile(name, ctx, *parallel, res, time.Since(start))
			if _, err := bf.Write(*benchdir); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
		}
		if capture {
			profiles = append(profiles, runner.MergeProfiles(res))
		}
		if *exp == "all" {
			fmt.Fprintln(stdout)
		}
	}
	// The profile and event stream are written once, after all
	// experiments, merged in run order — and only to their own files,
	// never stdout, so a profiled or traced run's tables stay
	// byte-identical to a bare one's.
	if capture {
		prof := tmprof.Merge(profiles...)
		if prof == nil {
			fmt.Fprintf(stderr, "experiments: -profile/-trace-out collected nothing\n")
			return 1
		}
		if *profile {
			if err := prof.WriteTraceFile(*profileOut); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "experiments: wrote profile to %s (load in Perfetto, or render with: go run ./cmd/tmprof %s)\n", *profileOut, *profileOut)
		}
		if *traceOut != "" {
			if err := writeTrace(*traceOut, prof.TraceBin); err != nil {
				fmt.Fprintf(stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "experiments: streamed %d bytes of events to %s (render with: go run ./cmd/tmprof %s)\n", len(prof.TraceBin), *traceOut, *traceOut)
		}
	}
	if *trendFile != "" {
		if *trendCheck {
			failed := false
			for _, rec := range trendRecs {
				prev := runner.LastTrend(history, rec.Experiment)
				if prev == nil {
					fmt.Fprintf(stderr, "experiments: trend: no history for %s yet; nothing to gate against\n", rec.Experiment)
					continue
				}
				for _, msg := range runner.CheckTrend(*prev, rec, *trendThreshold, *trendAllocThreshold) {
					fmt.Fprintf(stderr, "experiments: trend: %s: %s\n", rec.Experiment, msg)
					failed = true
				}
			}
			if failed {
				return 1
			}
			fmt.Fprintf(stderr, "experiments: trend: %d experiment(s) within thresholds\n", len(trendRecs))
		} else {
			for _, rec := range trendRecs {
				if err := runner.AppendTrend(*trendFile, rec); err != nil {
					fmt.Fprintf(stderr, "experiments: %v\n", err)
					return 1
				}
			}
			fmt.Fprintf(stderr, "experiments: trend: appended %d record(s) to %s\n", len(trendRecs), *trendFile)
		}
	}
	return 0
}

// writeTrace assembles the .tmtrace file: the self-describing header
// followed by the cells' captured run sections in matrix order.
func writeTrace(path string, body []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracebin.WriteHeader(f, "experiments"); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
