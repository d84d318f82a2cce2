package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// BenchEntry is one benchmark workload's measurement in a bench-JSON
// file (see cmd/benchjson). Metrics carries workload-specific numbers
// (percent reductions, nodes expanded, event counts) keyed by a stable
// snake_case name.
type BenchEntry struct {
	Name        string             `json:"name"`
	Runs        int                `json:"runs"`
	NsPerOp     int64              `json:"ns_per_op"`
	BytesPerOp  uint64             `json:"bytes_per_op"`
	AllocsPerOp uint64             `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Phases breaks the workload's cost down by flow phase, as reported
	// by the perf attribution layer. Schema 3+.
	Phases []BenchPhase `json:"phases,omitempty"`
}

// BenchPhase is one phase row of a perf-attributed bench entry: where
// inside the workload the time and allocations went.
type BenchPhase struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// BenchSchemaVersion is the current bench-JSON schema. Files written
// before versioning carry no "schema" field and validate as legacy;
// files at version 2 or later must also carry host metadata so
// cross-machine comparisons can be detected (see cmd/benchdiff), and
// files at version 3 may attach per-phase attribution rows to entries.
const BenchSchemaVersion = 3

// BenchHost records the machine a snapshot was measured on. Timing
// deltas between snapshots from different hosts are noise, not
// regressions; benchdiff refuses to gate on them unless overridden.
type BenchHost struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// Same reports whether two host records describe comparable machines.
func (h BenchHost) Same(o BenchHost) bool { return h == o }

// String renders the host as "linux/amd64 cpu=8 maxprocs=8".
func (h BenchHost) String() string {
	return fmt.Sprintf("%s/%s cpu=%d maxprocs=%d", h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS)
}

// BenchFile is the machine-readable perf-trajectory snapshot committed
// as BENCH_<tag>.json: one entry per workload, tagged with the PR it
// baselines. Future PRs append new files and compare against old ones.
type BenchFile struct {
	Schema      int          `json:"schema,omitempty"` // 0 = legacy (pre-versioning)
	Tag         string       `json:"tag"`
	GoVersion   string       `json:"go_version"`
	GeneratedAt string       `json:"generated_at,omitempty"`
	Host        *BenchHost   `json:"host,omitempty"` // required from schema 2 on
	Benchmarks  []BenchEntry `json:"benchmarks"`
}

// WriteBench encodes the file as indented JSON with a trailing
// newline.
func WriteBench(w io.Writer, f *BenchFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadBench decodes and validates a bench-JSON file.
func ReadBench(r io.Reader) (*BenchFile, error) {
	var f BenchFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: bench json: %w", err)
	}
	if f.Tag == "" {
		return nil, fmt.Errorf("obs: bench json missing tag")
	}
	if f.Schema > BenchSchemaVersion {
		return nil, fmt.Errorf("obs: bench json %q has schema %d, newer than supported %d",
			f.Tag, f.Schema, BenchSchemaVersion)
	}
	if f.Schema >= 2 && f.Host == nil {
		return nil, fmt.Errorf("obs: bench json %q (schema %d) missing host metadata", f.Tag, f.Schema)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("obs: bench json %q has no benchmarks", f.Tag)
	}
	for i, b := range f.Benchmarks {
		if b.Name == "" {
			return nil, fmt.Errorf("obs: bench json %q entry %d missing name", f.Tag, i)
		}
		if b.Runs <= 0 || b.NsPerOp < 0 {
			return nil, fmt.Errorf("obs: bench json %q entry %q has invalid runs/timing (%d, %d)",
				f.Tag, b.Name, b.Runs, b.NsPerOp)
		}
		if len(b.Phases) > 0 && f.Schema < 3 {
			return nil, fmt.Errorf("obs: bench json %q entry %q carries phases but schema %d predates them",
				f.Tag, b.Name, f.Schema)
		}
		for j, p := range b.Phases {
			if p.Name == "" {
				return nil, fmt.Errorf("obs: bench json %q entry %q phase %d missing name", f.Tag, b.Name, j)
			}
		}
	}
	return &f, nil
}
