package main

import (
	"fmt"

	"tmisa/internal/cache"
	"tmisa/internal/core"
	"tmisa/internal/tm"
	"tmisa/internal/workloads"
)

// A cell is one unit of work the submitter deals to a worker: the
// simulations of one registry matrix cell, rebuilt here from the
// simulator's public calls so every machine a cell builds is timed and
// checked. Key is "<experiment>/<registry cell label>", which is also
// the cell's golden key; Run returns the counters the registry reports
// for the cell (runner.Metrics' simulated fields).
type cell struct {
	Key string
	Run func(x *cellExec) primary
}

// workload is one benchmark workload: a fixed list of cells in registry
// order. observe attaches the oracle and the binary-trace pipeline to
// every machine of every cell. Why each workload exists is in README.md.
type workload struct {
	Name    string
	cells   []cell
	observe bool
	// cpuCounts are the machine sizes the workload builds, for the
	// per-size machine footprint report.
	cpuCounts []int
}

// registryCPUs is the figure5-style CPU count cmd/experiments defaults to.
const registryCPUs = 8

func workloadByName(name string) (workload, bool) {
	switch name {
	case "paper":
		var cells []cell
		for _, mk := range []func() []cell{
			overheadsCells, figure5Cells, ioCells, condsyncCells, schemesCells,
			enginesCells, opensemCells, depthCells, granularityCells, scalingCells,
		} {
			cells = append(cells, mk()...)
		}
		return workload{Name: name, cells: cells, cpuCounts: []int{1, 2, 4, 5, 8, 16}}, true
	case "hybrid":
		return workload{Name: name, cells: hybridCells(), cpuCounts: []int{1, 8}}, true
	case "scale256":
		return workload{Name: name, cells: scaleCells(), cpuCounts: []int{16, 64, 128, 256}}, true
	case "observed":
		return workload{Name: name, cells: figure5Cells(), observe: true, cpuCounts: []int{1, 8}}, true
	}
	return workload{}, false
}

// workloadNames lists the workloads in the order BENCHMARK.json declares them.
var workloadNames = []string{"paper", "hybrid", "scale256", "observed"}

// suiteEntry mirrors the registry's scientificSuite: the canonical
// Figure 5 workload list.
type suiteEntry = workloads.SuiteEntry

var suite = workloads.Suite()

// base is the registry's default platform (runner.Context.base without
// the oracle, which cellExec adds for observed workloads).
func base() core.Config { return core.DefaultConfig() }

func overheadsCells() []cell {
	return []cell{{Key: "overheads/empty-tx", Run: func(x *cellExec) primary {
		m := x.newMachine(core.Config{CPUs: 1})
		var insns uint64
		x.run(m, func(p *core.Proc) {
			before := p.Counters().Instructions
			p.Atomic(func(tx *core.Tx) {})
			insns = p.Counters().Instructions - before
		})
		x.finish(m)
		return primary{Instructions: insns}
	}}}
}

func figure5Cells() []cell {
	var cells []cell
	for _, s := range suite {
		s := s
		cells = append(cells, cell{Key: "figure5/" + s.Name, Run: func(x *cellExec) primary {
			_, _, nested := x.figure5(s.New(), base(), registryCPUs)
			return fromReport(nested)
		}})
	}
	return cells
}

var ioCPUCounts = []int{1, 2, 4, 8, 16}

func ioCells() []cell {
	var cells []cell
	for _, serialize := range []bool{false, true} {
		for _, n := range ioCPUCounts {
			serialize, n := serialize, n
			key := fmt.Sprintf("io/%s/%d", workloads.DefaultIOBench(serialize).Name(), n)
			cells = append(cells, cell{Key: key, Run: func(x *cellExec) primary {
				return fromReport(x.execute(workloads.DefaultIOBench(serialize), base(), n))
			}})
		}
	}
	return cells
}

func condsyncCells() []cell {
	var cells []cell
	for _, polling := range []bool{false, true} {
		for _, pairs := range []int{2, 4, 8, 16} {
			polling, pairs := polling, pairs
			key := "condsync/" + workloads.DefaultCondSyncBench(pairs, polling).Name()
			cells = append(cells, cell{Key: key, Run: func(x *cellExec) primary {
				return fromReport(x.execute(workloads.DefaultCondSyncBench(pairs, polling), core.DefaultConfig(), 5))
			}})
		}
	}
	return cells
}

func schemesCells() []cell {
	var cells []cell
	for _, s := range []suiteEntry{suite[3], suite[7]} {
		for _, scheme := range []cache.Scheme{cache.Associativity, cache.Multitrack} {
			s, scheme := s, scheme
			cells = append(cells, cell{Key: fmt.Sprintf("schemes/%s/%s", s.Name, scheme), Run: func(x *cellExec) primary {
				cfg := base()
				cfg.Cache.Scheme = scheme
				return fromReport(x.execute(s.New(), cfg, registryCPUs))
			}})
		}
	}
	return cells
}

func enginesCells() []cell {
	var cells []cell
	for _, s := range suite[:7] {
		for _, engine := range []core.EngineKind{core.Lazy, core.Eager} {
			s, engine := s, engine
			cells = append(cells, cell{Key: fmt.Sprintf("engines/%s/%s", s.Name, engine), Run: func(x *cellExec) primary {
				cfg := base()
				cfg.Engine = engine
				return fromReport(x.execute(s.New(), cfg, registryCPUs))
			}})
		}
	}
	return cells
}

// opensemCells is the registry's open-nesting litmus: the parent's read
// of a line its open child writes, then a conflicting third-party commit.
func opensemCells() []cell {
	mk := func(sem tm.OpenSemantics) cell {
		return cell{Key: "opensem/" + sem.String(), Run: func(x *cellExec) primary {
			cfg := core.DefaultConfig()
			cfg.CPUs = 2
			cfg.OpenSemantics = sem
			m := x.newMachine(cfg)
			shared := m.AllocLine()
			var rollbacks uint64
			x.run(m,
				func(p *core.Proc) {
					p.Atomic(func(tx *core.Tx) {
						p.Load(shared)
						//tmlint:allow nesting -- the experiment measures the Moss/Hosking anomaly itself
						p.AtomicOpen(func(open *core.Tx) { p.Store(shared, 42) })
						p.Tick(4000)
					})
					rollbacks = p.Counters().Rollbacks
				},
				func(p *core.Proc) {
					p.Tick(1500)
					p.Atomic(func(tx *core.Tx) { p.Store(shared, 7) })
				},
			)
			x.finish(m)
			return primary{Rollbacks: rollbacks}
		}}
	}
	return []cell{mk(tm.PaperOpen), mk(tm.MossHoskingOpen)}
}

// depthCells is the registry's nesting-depth sweep: a shared counter
// incremented at nesting depth d by four CPUs.
func depthCells() []cell {
	var cells []cell
	for d := 1; d <= 8; d++ {
		d := d
		cells = append(cells, cell{Key: fmt.Sprintf("depth/depth-%d", d), Run: func(x *cellExec) primary {
			cfg := base()
			cfg.CPUs = 4
			m := x.newMachine(cfg)
			ctr := m.AllocLine()
			worker := func(p *core.Proc) {
				for i := 0; i < 20; i++ {
					var rec func(level int)
					rec = func(level int) {
						p.Atomic(func(tx *core.Tx) {
							p.Tick(40)
							if level < d {
								rec(level + 1)
							} else {
								p.Store(ctr, p.Load(ctr)+1)
							}
						})
					}
					rec(1)
				}
			}
			rep := x.run(m, worker, worker, worker, worker)
			x.finish(m)
			return fromReport(rep)
		}})
	}
	return cells
}

func granularityCells() []cell {
	var cells []cell
	for _, s := range []suiteEntry{suite[3], suite[2]} {
		for _, word := range []bool{false, true} {
			s, word := s, word
			grain := "line"
			if word {
				grain = "word"
			}
			cells = append(cells, cell{Key: fmt.Sprintf("granularity/%s/%s", s.Name, grain), Run: func(x *cellExec) primary {
				cfg := base()
				cfg.WordTracking = word
				return fromReport(x.execute(s.New(), cfg, registryCPUs))
			}})
		}
	}
	return cells
}

func scalingCells() []cell {
	var cells []cell
	for _, s := range []suiteEntry{suite[3], suite[8]} {
		s := s
		cells = append(cells, cell{Key: "scaling/" + s.Name + "/seq", Run: func(x *cellExec) primary {
			return fromReport(x.executeSequential(s.New(), base()))
		}})
		for _, n := range []int{1, 2, 4, 8, 16} {
			n := n
			cells = append(cells, cell{Key: fmt.Sprintf("scaling/%s/%d", s.Name, n), Run: func(x *cellExec) primary {
				return fromReport(x.execute(s.New(), base(), n))
			}})
		}
	}
	return cells
}

func scaleCells() []cell {
	var cells []cell
	for _, s := range []suiteEntry{suite[3], suite[8]} {
		for _, n := range []int{16, 64, 128, 256} {
			s, n := s, n
			cells = append(cells, cell{Key: fmt.Sprintf("scale/%s/%d", s.Name, n), Run: func(x *cellExec) primary {
				return fromReport(x.execute(s.New(), base(), n))
			}})
		}
	}
	return cells
}

// hybridCells mirrors the registry's hybrid sweep: per workload and
// capacity, one htm-virt arm (a physically tiny cache with virtualized
// overflow) and one bounded arm per fallback mode and retry budget.
func hybridCells() []cell {
	var cells []cell
	for _, s := range suite {
		for _, capLines := range []int{1, 4, 16} {
			s, capLines := s, capLines
			cells = append(cells, cell{Key: fmt.Sprintf("hybrid/%s/htm-virt/cap=%d", s.Name, capLines), Run: func(x *cellExec) primary {
				cfg := base()
				cfg.Cache.L1Bytes = capLines * cfg.Cache.LineSize
				cfg.Cache.L1Ways = 1
				cfg.Cache.L2Bytes = capLines * cfg.Cache.LineSize
				cfg.Cache.L2Ways = 1
				return fromReport(x.execute(s.New(), cfg, registryCPUs))
			}})
			for _, fb := range []core.FallbackKind{core.SerialFallback, core.TL2Fallback} {
				for _, budget := range []int{2, 8} {
					fb, budget := fb, budget
					key := fmt.Sprintf("hybrid/%s/%s/cap=%d/budget=%d", s.Name, fb, capLines, budget)
					cells = append(cells, cell{Key: key, Run: func(x *cellExec) primary {
						cfg := base()
						cfg.Fallback = fb
						cfg.HTMRetryBudget = budget
						cfg.Cache.BoundedSpec = true
						cfg.Cache.MaxWriteLines = capLines
						cfg.Cache.MaxReadLines = 4 * capLines
						return fromReport(x.execute(s.New(), cfg, registryCPUs))
					}})
				}
			}
		}
	}
	return cells
}
