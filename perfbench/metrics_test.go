package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastJSON parses the result line that ends a benchmark's output.
func lastJSON(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return r
}

type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func benchmarkJSON(t *testing.T) (workloads []string, e2e, layer []declared) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, b.EndToEnd, b.PerLayer
}

// printedMetrics returns the metrics a result prints, as name → unit,
// from the table and from the JSON line, which must agree.
func printedMetrics(t *testing.T, r result) map[string]string {
	t.Helper()
	var out strings.Builder
	if err := r.print(&out, "test"); err != nil {
		t.Fatal(err)
	}
	table := map[string]string{}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		table[f[0]] = f[2]
	}
	jsonNames := map[string]string{}
	for name, m := range lastJSON(t, out.String()).Metrics {
		jsonNames[name] = m.Unit
	}
	if !reflect.DeepEqual(table, jsonNames) {
		t.Errorf("table prints %v, JSON line %v", table, jsonNames)
	}
	return jsonNames
}

func checkDeclared(t *testing.T, mode string, printed map[string]string, decl []declared) {
	t.Helper()
	want := map[string]string{}
	for _, d := range decl {
		want[d.Name] = d.Unit
	}
	for name, unit := range printed {
		if u, ok := want[name]; !ok {
			t.Errorf("%s prints %s, which BENCHMARK.json does not declare", mode, name)
		} else if u != unit {
			t.Errorf("%s prints %s in %s, BENCHMARK.json says %s", mode, name, unit, u)
		}
	}
	for name := range want {
		if _, ok := printed[name]; !ok {
			t.Errorf("BENCHMARK.json declares %s, which %s does not print", name, mode)
		}
	}
}

// TestPrintedMetricsAreDeclared checks both output modes against
// BENCHMARK.json: every metric printed is declared with the same unit,
// and every declared metric is printed.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	names, e2e, layer := benchmarkJSON(t)
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	p := pass{workers: 2, results: make([]cellResult, 3), refs: []refTime{{refNominal, refNominalCPU}}}
	checkDeclared(t, "--trace 0", printedMetrics(t, endToEndMetrics(p, []pass{p}, 1<<20)), e2e)
	l := layerRun{full: p, untraced: []pass{p}, traced: []pass{p}, callSums: []map[string]time.Duration{{}}, machineMB: []float64{1}}
	checkDeclared(t, "--trace 1", printedMetrics(t, layerMetrics(l, []int{8})), layer)

	bound := map[string]float64{}
	for _, d := range e2e {
		bound[d.Name] = d.Bound
	}
	for name, b := range bound {
		if b > bound["setup_s"] {
			t.Errorf("%s has bound %v, above setup_s's %v", name, b, bound["setup_s"])
		}
	}
}

// TestEveryCellHasAGolden checks that each workload's cells are unique
// and committed in the goldens.
func TestEveryCellHasAGolden(t *testing.T) {
	g := goldens(t)
	for _, name := range workloadNames {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		seen := map[string]bool{}
		for _, c := range w.cells {
			if seen[c.Key] {
				t.Errorf("%s: cell %s twice", name, c.Key)
			}
			seen[c.Key] = true
			if _, ok := g[c.Key]; !ok {
				t.Errorf("%s: cell %s has no golden", name, c.Key)
			}
		}
	}
}

func TestDist(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	sort.Float64s(xs)
	for _, c := range []struct {
		xs   []float64
		want string
	}{
		{xs[:5], "median 3 s of n=5 (no percentile has ten samples beyond it)"},
		{xs[:40], "median 20.5 s of n=40, p75 30 s"},
		{xs, "median 50.5 s of n=100, p90 90 s"},
	} {
		if got := dist(c.xs, "s"); got != c.want {
			t.Errorf("dist(n=%d) = %q, want %q", len(c.xs), got, c.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--trace", "2"},
		{"--no-such-flag"},
	} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

// TestTracedRun runs the per-layer mode end to end on observed, the one
// workload where every layer does work, and checks what it prints and
// writes.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	var out, errs strings.Builder
	if code := run([]string{"--workload", "observed", "--seconds", "0", "--trace", "1", "--out", dir}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	_, _, layer := benchmarkJSON(t)
	res := lastJSON(t, out.String())
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(layer) {
		t.Fatalf("correct=%v failed=%d with %d metrics", res.Correct, res.Failed, len(res.Metrics))
	}
	for _, name := range []string{"oracle.events", "tracebin.bytes_per_event", "tmprof.from_stream_s", "core.run_s", "profile.samples"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	for _, f := range []string{"observed.spans.json", "observed.cpu0.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

// TestRefsBefore checks that the reference chunks are all dealt, spread
// evenly over the submission order, whether there are more cells than
// chunks or fewer.
func TestRefsBefore(t *testing.T) {
	for _, c := range []struct {
		n, refs int
		want    []int
	}{
		{8, 16, []int{2, 2, 2, 2, 2, 2, 2, 2}},
		{9, 4, []int{1, 0, 1, 0, 1, 0, 1, 0, 0}},
		{3, 0, []int{0, 0, 0}},
	} {
		got := make([]int, c.n)
		for i := range got {
			got[i] = refsBefore(i, c.n, c.refs)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("refsBefore(n=%d, refs=%d) = %v, want %v", c.n, c.refs, got, c.want)
		}
	}
}

// TestScaleToReference checks that a pass run on a slow host, where
// every reference chunk takes twice its nominal time and the cells
// 2^refExponent times as long, reports the timings of the same pass on
// the quiet host, with the chunks' own share taken out.
func TestScaleToReference(t *testing.T) {
	fast := pass{workers: 2, wall: time.Second, cpu: 2 * time.Second,
		work: cellWork{setup: 100 * time.Millisecond, run: 1500 * time.Millisecond}}
	for i := 0; i < 4; i++ {
		fast.refs = append(fast.refs, refTime{refNominal, refNominalCPU})
	}
	k := math.Pow(2, refExponent)
	slower := func(d time.Duration) time.Duration { return time.Duration(k * float64(d)) }
	slow := pass{workers: 2, cpu: slower(fast.cpu-4*refNominalCPU) + 8*refNominalCPU,
		wall: slower(fast.wall-2*refNominal) + 4*refNominal,
		work: cellWork{setup: slower(fast.work.setup), run: slower(fast.work.run)}}
	for i := 0; i < 4; i++ {
		slow.refs = append(slow.refs, refTime{2 * refNominal, 2 * refNominalCPU})
	}
	f, s := scaleToReference(fast), scaleToReference(slow)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-6 }
	if !near(f.wall, s.wall) || !near(f.cpu, s.cpu) || !near(f.setup, s.setup) || !near(f.run, s.run) {
		t.Errorf("full speed %+v, half speed %+v", f, s)
	}
	if want := 1 - 4*refNominal.Seconds()/2; !near(f.wall, want) {
		t.Errorf("wall = %v, want %v: the pass less the chunks' worker time over 2 workers", f.wall, want)
	}
	if want := 2 - 4*refNominalCPU.Seconds(); !near(f.cpu, want) {
		t.Errorf("cpu = %v, want %v: the pass less the chunks' CPU time", f.cpu, want)
	}
}

// TestRefChunkAllocatesNothing checks that a reference chunk leaves the
// pass's allocation metrics to the cells.
func TestRefChunkAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, refChunk); n != 0 {
		t.Errorf("a reference chunk allocates %v times", n)
	}
}
