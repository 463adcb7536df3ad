package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenRec is a cell's committed exact output: the registry-level
// counters and every machine's cycles, counters and fingerprint, in the
// order the cell builds its machines.
type goldenRec struct {
	Primary  primary      `json:"primary"`
	Machines []machineRec `json:"machines"`
}

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens(data []byte) (map[string]goldenRec, error) {
	var g map[string]goldenRec
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return g, nil
}

// checkGolden compares a cell's outputs with its golden.
func checkGolden(goldens map[string]goldenRec, r cellResult) error {
	want, ok := goldens[r.key]
	if !ok {
		return fmt.Errorf("%s: no golden", r.key)
	}
	if r.primary != want.Primary {
		return fmt.Errorf("%s: counters %+v, golden %+v", r.key, r.primary, want.Primary)
	}
	if len(r.machines) != len(want.Machines) {
		return fmt.Errorf("%s: built %d machines, golden has %d", r.key, len(r.machines), len(want.Machines))
	}
	for i, m := range r.machines {
		if w := want.Machines[i]; m != w {
			return fmt.Errorf("%s: machine %d: cycles %d fingerprint %#x counters %+v; golden cycles %d fingerprint %#x counters %+v",
				r.key, i, m.Cycles, m.Fingerprint, m.Counters, w.Cycles, w.Fingerprint, w.Counters)
		}
	}
	return nil
}

// updateGoldens runs every workload once in registry order and writes
// the outputs as the new goldens. Cells shared by two workloads must
// produce identical outputs in both.
func updateGoldens(path string, workers int) error {
	goldens := map[string]goldenRec{}
	for _, name := range workloadNames {
		w, _ := workloadByName(name)
		p, err := runPass(w, passOpts{workers: workers, order: identity(len(w.cells))})
		if err != nil {
			return err
		}
		for _, r := range p.results {
			if r.err != nil {
				return r.err
			}
			rec := goldenRec{Primary: r.primary, Machines: r.machines}
			if prev, ok := goldens[r.key]; ok {
				if err := checkGolden(map[string]goldenRec{r.key: prev}, r); err != nil {
					return fmt.Errorf("%s differs from another workload's run of the same cell: %w", name, err)
				}
			}
			goldens[r.key] = rec
		}
	}
	data, err := marshalGoldens(goldens)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// marshalGoldens writes one cell per line, sorted by key, so a model
// change shows as a per-cell diff.
func marshalGoldens(goldens map[string]goldenRec) ([]byte, error) {
	keys := make([]string, 0, len(goldens))
	for k := range goldens {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		kj, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		vj, err := json.Marshal(goldens[k])
		if err != nil {
			return nil, err
		}
		b.Write(kj)
		b.WriteString(": ")
		b.Write(vj)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
