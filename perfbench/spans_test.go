package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestChromeTrace runs a small traced pass and checks the written
// trace-event JSON: every span is a complete event, calls nest in their
// cell and cells in the workload span, and a cell's spans share its id.
func TestChromeTrace(t *testing.T) {
	w := workload{Name: "spans", cells: append(opensemCells(), depthCells()[:2]...)}
	spans := newSpanLog()
	if _, err := runPass(w, passOpts{workers: 1, order: identity(len(w.cells)), golden: goldens(t), spans: spans}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := spans.writeChrome(&buf, "perfbench spans"); err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int `json:"id"`
				Parent int `json:"parent"`
				Cell   int `json:"cell"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	type interval struct{ start, end float64 }
	byID := map[int]interval{}
	cats := map[string]int{}
	for _, e := range file.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("%s: phase %q dur %v", e.Name, e.Ph, e.Dur)
		}
		byID[e.Args.ID] = interval{e.Ts, e.Ts + e.Dur}
		cats[e.Cat]++
	}
	if cats["workload"] != 1 || cats["cell"] != len(w.cells) || cats["core"] == 0 {
		t.Fatalf("span categories %v", cats)
	}
	for _, e := range file.TraceEvents {
		if e.Ph != "X" || e.Cat == "workload" {
			continue
		}
		parent, ok := byID[e.Args.Parent]
		if !ok {
			t.Fatalf("%s: parent %d not in the trace", e.Name, e.Args.Parent)
		}
		if e.Ts < parent.start || e.Ts+e.Dur > parent.end+1e-3 {
			t.Errorf("%s [%v,+%v] outside its parent [%v,%v]", e.Name, e.Ts, e.Dur, parent.start, parent.end)
		}
		if e.Cat == "cell" && e.Args.Cell != e.Args.ID {
			t.Errorf("cell span %s: cell id %d, span id %d", e.Name, e.Args.Cell, e.Args.ID)
		}
		if e.Cat != "cell" && e.Args.Cell != e.Args.Parent {
			t.Errorf("call span %s: cell id %d, parent %d", e.Name, e.Args.Cell, e.Args.Parent)
		}
	}
}
