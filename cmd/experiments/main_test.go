package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tmisa/internal/runner"
	"tmisa/internal/tmprof"
	"tmisa/internal/tracebin"
)

// runOnce runs the command in-process and returns its stdout plus the
// canonicalized BENCH_*.json files it wrote, keyed by file name.
func runOnce(t *testing.T, exp string, parallel int, extraArgs ...string) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-exp", exp, "-parallel", strconv.Itoa(parallel), "-benchdir", dir, "-q"}
	args = append(args, extraArgs...)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run(%v) = %d, want 0; stderr:\n%s", args, code, errb.String())
	}
	bench := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "BENCH_") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		canon, err := runner.Canonicalize(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		bench[e.Name()] = string(canon)
	}
	if len(bench) == 0 {
		t.Fatalf("run(%v) wrote no BENCH_*.json files", args)
	}
	return out.String(), bench
}

// compareRuns fails the test if two runs differ in stdout or in any
// canonicalized bench file.
func compareRuns(t *testing.T, what, outA, outB string, benchA, benchB map[string]string) {
	t.Helper()
	if outA != outB {
		t.Errorf("%s: stdout differs\n--- A ---\n%s--- B ---\n%s", what, outA, outB)
	}
	if len(benchA) != len(benchB) {
		t.Fatalf("%s: bench file sets differ: %d vs %d files", what, len(benchA), len(benchB))
	}
	for name, a := range benchA {
		b, ok := benchB[name]
		if !ok {
			t.Errorf("%s: %s missing from second run", what, name)
			continue
		}
		if a != b {
			t.Errorf("%s: %s differs (canonicalized)\n--- A ---\n%s\n--- B ---\n%s", what, name, a, b)
		}
	}
}

// TestParallelismDeterminism checks the tentpole's core property: for
// every experiment, -parallel 1 and -parallel 8 produce byte-identical
// tables and byte-identical BENCH_*.json (modulo the wall-clock fields
// Canonicalize strips).
func TestParallelismDeterminism(t *testing.T) {
	for _, name := range runner.Order {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out1, bench1 := runOnce(t, name, 1)
			out8, bench8 := runOnce(t, name, 8)
			compareRuns(t, name+": p1 vs p8", out1, out8, bench1, bench8)
		})
	}
}

// TestRepeatDeterminism checks that two runs at the same parallelism are
// identical too (no hidden global state across runs).
func TestRepeatDeterminism(t *testing.T) {
	outA, benchA := runOnce(t, "all", 8)
	outB, benchB := runOnce(t, "all", 8)
	compareRuns(t, "all: run A vs run B at p8", outA, outB, benchA, benchB)
}

// TestProfileDeterminism checks, for every experiment in the registry,
// that -profile perturbs nothing: stdout and the canonicalized bench
// files are byte-identical with and without it, the profile file is
// valid trace-event JSON, and profiled runs are themselves deterministic
// across parallelism levels (per-cell collectors merged in matrix
// order).
func TestProfileDeterminism(t *testing.T) {
	for _, name := range runner.Order {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			profA := filepath.Join(t.TempDir(), "prof.json")
			profB := filepath.Join(t.TempDir(), "prof.json")
			bare, bareBench := runOnce(t, name, 4)
			outA, benchA := runOnce(t, name, 1, "-profile", "-profile-out", profA)
			outB, benchB := runOnce(t, name, 4, "-profile", "-profile-out", profB)
			compareRuns(t, name+": bare vs profiled", bare, outA, bareBench, benchA)
			compareRuns(t, name+": profiled p1 vs p4", outA, outB, benchA, benchB)
			a, err := os.ReadFile(profA)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(profB)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: profile bytes differ between -parallel 1 and 4", name)
			}
			if err := tmprof.ValidateTraceJSON(a); err != nil {
				t.Errorf("%s: profile is not valid trace-event JSON: %v", name, err)
			}
		})
	}
}

// TestExitCodes pins the command's exit-code contract: 2 for usage
// errors (unknown experiment, bad flags, stray arguments), 1 for
// failures while running, 0 for success.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown exp", []string{"-exp", "no-such-experiment"}, 2},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"unknown sched", []string{"-exp", "overheads", "-sched", "fibers"}, 2},
		{"stray args", []string{"-exp", "overheads", "extra"}, 2},
		{"unwritable benchdir", []string{"-exp", "overheads", "-q", "-benchdir", "/nonexistent-dir/sub"}, 1},
		{"unwritable profile-out", []string{"-exp", "overheads", "-q", "-benchdir", "", "-profile", "-profile-out", "/nonexistent-dir/prof.json"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if got := run(tc.args, &out, &errb); got != tc.want {
				t.Errorf("run(%v) = %d, want %d; stderr:\n%s", tc.args, got, tc.want, errb.String())
			}
		})
	}
}

// TestTraceOut checks the streaming flag end to end: -trace-out writes
// a valid .tmtrace stream, perturbs neither stdout nor the bench files,
// and the stream is byte-identical across parallelism levels.
func TestTraceOut(t *testing.T) {
	traceA := filepath.Join(t.TempDir(), "run.tmtrace")
	traceB := filepath.Join(t.TempDir(), "run.tmtrace")
	bare, bareBench := runOnce(t, "depth", 4)
	outA, benchA := runOnce(t, "depth", 1, "-trace-out", traceA)
	outB, benchB := runOnce(t, "depth", 4, "-trace-out", traceB)
	compareRuns(t, "depth: bare vs traced", bare, outA, bareBench, benchA)
	compareRuns(t, "depth: traced p1 vs p4", outA, outB, benchA, benchB)
	a, err := os.ReadFile(traceA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(traceB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("trace stream differs between -parallel 1 and 4")
	}
	f, err := os.Open(traceA)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, events, err := tracebin.Validate(f)
	if err != nil {
		t.Fatalf("stream fails validation: %v", err)
	}
	if runs == 0 || events == 0 {
		t.Fatalf("empty stream: %d runs, %d events", runs, events)
	}
}

// TestTrendFlow drives the perf-trend lifecycle in-process: append a
// record, gate cleanly against it, fail the gate on a doctored
// regression, and render the history report.
func TestTrendFlow(t *testing.T) {
	trend := filepath.Join(t.TempDir(), "TREND.jsonl")
	bench := t.TempDir()

	// First run appends the baseline record.
	var out, errb bytes.Buffer
	args := []string{"-exp", "depth", "-q", "-benchdir", bench, "-trend", trend}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("append run = %d; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "appended 1 record(s)") {
		t.Fatalf("no append confirmation:\n%s", errb.String())
	}
	recs, err := runner.ReadTrend(trend)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Experiment != "depth" || recs[0].Cycles == 0 {
		t.Fatalf("unexpected history after append: %+v", recs)
	}

	// An identical re-run gates clean (simulated cycles are
	// deterministic, and allocs sit far inside the generous threshold).
	errb.Reset()
	args = []string{"-exp", "depth", "-q", "-benchdir", bench, "-trend", trend, "-trend-check"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("clean gate = %d; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "within thresholds") {
		t.Fatalf("no pass confirmation:\n%s", errb.String())
	}

	// Doctor the history so the baseline looks much faster: the same
	// re-run must now trip the cycle gate and exit 1.
	recs[0].Cycles /= 2
	for i := range recs[0].Cells {
		recs[0].Cells[i].Cycles /= 2
	}
	doctored := filepath.Join(t.TempDir(), "TREND.jsonl")
	if err := runner.AppendTrend(doctored, recs[0]); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	args = []string{"-exp", "depth", "-q", "-benchdir", bench, "-trend", doctored, "-trend-check"}
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("regression gate = %d, want 1; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "regressed") {
		t.Fatalf("gate failure does not explain itself:\n%s", errb.String())
	}

	// Gating against an empty history passes with a note, not a failure.
	errb.Reset()
	empty := filepath.Join(t.TempDir(), "TREND.jsonl")
	args = []string{"-exp", "depth", "-q", "-benchdir", bench, "-trend", empty, "-trend-check"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("gate with no history = %d; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no history") {
		t.Fatalf("missing-history note absent:\n%s", errb.String())
	}

	// -trend-report renders the history without running anything.
	out.Reset()
	errb.Reset()
	args = []string{"-trend", trend, "-trend-report"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("report = %d; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "== depth") {
		t.Fatalf("report missing experiment section:\n%s", out.String())
	}

	// The trend flags demand a history file.
	if code := run([]string{"-trend-check"}, &out, &errb); code != 2 {
		t.Errorf("-trend-check without -trend = %d, want 2", code)
	}
}

// TestSuccessExitCode runs the cheapest experiment end to end.
func TestSuccessExitCode(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-exp", "overheads", "-q", "-benchdir", t.TempDir()}
	if got := run(args, &out, &errb); got != 0 {
		t.Fatalf("run(%v) = %d, want 0; stderr:\n%s", args, got, errb.String())
	}
	if !strings.Contains(out.String(), "measured empty transaction") {
		t.Errorf("overheads output missing measured line:\n%s", out.String())
	}
}

// TestHostProfiles pins -cpuprofile and -memprofile: stdout is the same
// with and without them, each writes a gzipped pprof profile, and a path
// that cannot be created is a usage error (exit 2) caught before any
// experiment runs.
func TestHostProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	bare, _ := runOnce(t, "io", 2)
	profiled, _ := runOnce(t, "io", 2, "-cpuprofile", cpu, "-memprofile", mem)
	if bare != profiled {
		t.Errorf("stdout differs with -cpuprofile/-memprofile\n--- bare ---\n%s--- profiled ---\n%s", bare, profiled)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzipped pprof profile", filepath.Base(path), len(data))
		}
	}

	missing := filepath.Join(dir, "no-such-dir", "x.pprof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var out, errb bytes.Buffer
		args := []string{"-exp", "overheads", "-q", "-benchdir", "", flag, missing}
		if got := run(args, &out, &errb); got != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr:\n%s", args, got, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s with an unwritable path ran the experiment:\n%s", flag, out.String())
		}
	}
}
