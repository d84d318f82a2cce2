package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark spec, relative to the repository root the
// benchmark runs from.
const specFile = "BENCHMARK.json"

// spec is BENCHMARK.json: the workload and metric names every run and
// every later comparison is judged by. The benchmark reads it at run
// time, so the file is the single list of what a run reports.
type spec struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []specLoad `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
}

// metric is one named measurement. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse spec %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || s.RunSeconds <= 0 {
		return nil, fmt.Errorf("spec %s: needs workloads, end_to_end metrics and run_seconds", path)
	}
	return &s, nil
}

// metrics returns the metric list a run in the given mode reports.
func (s *spec) metrics(trace bool) []metric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}
