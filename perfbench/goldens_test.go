package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tmisa/internal/core"
	"tmisa/internal/runner"
)

func goldens(t *testing.T) map[string]goldenRec {
	t.Helper()
	g, err := loadGoldens(goldensJSON)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldensMatchBaseline ties the benchmark's goldens to the runner's
// pinned BENCH baseline: every baseline cell has a golden with the same
// simulated counters.
func TestGoldensMatchBaseline(t *testing.T) {
	data, err := os.ReadFile("../internal/runner/testdata/BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var files []runner.BenchFile
	if err := json.Unmarshal(data, &files); err != nil {
		t.Fatal(err)
	}
	g := goldens(t)
	shared := 0
	for _, f := range files {
		for _, c := range f.Cells {
			key := f.Experiment + "/" + c.Label
			rec, ok := g[key]
			if !ok {
				t.Errorf("baseline cell %s has no golden", key)
				continue
			}
			want := primary{Cycles: c.Cycles, Rollbacks: c.Rollbacks, Instructions: c.Instructions, Violations: c.Violations}
			if rec.Primary != want {
				t.Errorf("%s: golden %+v, baseline %+v", key, rec.Primary, want)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no cell shared with the baseline")
	}
	t.Logf("%d baseline cells agree with the goldens", shared)
}

// TestGoldensMatchRegistry runs every registry experiment through
// runner.Run and checks that the benchmark's cells are the registry's
// cells, with the counters the registry reports.
func TestGoldensMatchRegistry(t *testing.T) {
	g := goldens(t)
	for _, exp := range runner.Order {
		if exp == "hybrid" && testing.Short() {
			continue
		}
		e, ok := runner.Find(exp)
		if !ok {
			t.Fatalf("%s not in the registry", exp)
		}
		res, err := runner.Run(e.Cells(runner.Context{CPUs: registryCPUs}), 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		var labels []string
		for _, m := range res {
			key := exp + "/" + m.Label
			labels = append(labels, key)
			want := primary{Cycles: m.Cycles, Rollbacks: m.Rollbacks, Instructions: m.Instructions, Violations: m.Violations}
			if rec := g[key]; rec.Primary != want {
				t.Errorf("%s: golden %+v, registry %+v", key, rec.Primary, want)
			}
		}
		var keys []string
		for k := range g {
			if strings.HasPrefix(k, exp+"/") {
				keys = append(keys, k)
			}
		}
		sort.Strings(labels)
		sort.Strings(keys)
		if !reflect.DeepEqual(labels, keys) {
			t.Errorf("%s: registry cells %v, golden cells %v", exp, labels, keys)
		}
	}
}

// TestSeedOnlyChangesOrder runs the paper workload under two seeds: the
// submission orders differ, every cell's outputs are identical.
func TestSeedOnlyChangesOrder(t *testing.T) {
	w, _ := workloadByName("paper")
	g := goldens(t)
	var runs [2]pass
	var orders [2][]int
	for i, seed := range []int64{1, 2} {
		orders[i] = rand.New(rand.NewSource(seed)).Perm(len(w.cells))
		p, err := runPass(w, passOpts{workers: 2, order: orders[i], golden: g})
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 {
			t.Fatalf("seed %d: %d cells failed", seed, p.failed)
		}
		runs[i] = p
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Fatal("seeds 1 and 2 submit cells in the same order")
	}
	for i, a := range runs[0].results {
		b := runs[1].results[i]
		if a.key != b.key || a.primary != b.primary || !reflect.DeepEqual(a.machines, b.machines) {
			t.Errorf("cell %s: outputs differ between seeds", a.key)
		}
	}
}

// failingWorkload always fails verification.
type failingWorkload struct{}

func (failingWorkload) Name() string                    { return "failing" }
func (failingWorkload) Setup(m *core.Machine, cpus int) {}
func (failingWorkload) Run(p *core.Proc, cpus int)      { p.Tick(10) }
func (failingWorkload) Verify(m *core.Machine) error    { return os.ErrInvalid }

// TestFailingCellIsCounted injects a cell that fails verification and a
// cell whose outputs differ from its golden: both are counted as failed,
// the pass completes, and the result says so.
func TestFailingCellIsCounted(t *testing.T) {
	w := workload{Name: "inject", cells: []cell{
		overheadsCells()[0],
		{Key: "inject/verify-fails", Run: func(x *cellExec) primary {
			return fromReport(x.execute(failingWorkload{}, base(), 2))
		}},
		// The Moss-Hosking arm under the paper arm's golden.
		{Key: "opensem/paper", Run: opensemCells()[1].Run},
	}}
	p, err := runPass(w, passOpts{workers: 2, order: []int{2, 1, 0}, golden: goldens(t), refs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.cellWall) != 3 || len(p.refs) != 2 || p.refs[1].wall <= 0 || p.refs[1].cpu <= 0 {
		t.Fatalf("%d cell walls and reference chunks %v, want 3 and 2 timed chunks", len(p.cellWall), p.refs)
	}
	if p.failed != 2 {
		t.Fatalf("failed = %d, want 2", p.failed)
	}
	if err := p.results[0].err; err != nil {
		t.Errorf("passing cell failed: %v", err)
	}
	if err := p.results[1].err; err == nil || !strings.Contains(err.Error(), "failed verification") {
		t.Errorf("verify failure reported as %v", err)
	}
	if err := p.results[2].err; err == nil || !strings.Contains(err.Error(), "golden") {
		t.Errorf("golden mismatch reported as %v", err)
	}
	var out strings.Builder
	if err := endToEndMetrics(pass{}, []pass{p}, 1).print(&out, w.Name); err != nil {
		t.Fatal(err)
	}
	res := lastJSON(t, out.String())
	if res.Correct || res.Attempted != 3 || res.Failed != 2 {
		t.Errorf("result correct=%v attempted=%d failed=%d, want false 3 2", res.Correct, res.Attempted, res.Failed)
	}
	if got := res.Metrics["ok_frac"].Value; math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ok_frac = %v, want 1/3", got)
	}
}
