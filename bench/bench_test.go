package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"overcell/internal/gen"
)

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// At seed 0 the first op of the Table 1 workloads is exactly the
// paper's three instances.
func TestTable1Params(t *testing.T) {
	table2 := batches()[0].draw
	for slot, mk := range []func() (*gen.Instance, error){gen.Ami33Like, gen.XeroxLike, gen.Ex3Like} {
		want, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		in, err := table2(0, 0, slot)
		if err != nil {
			t.Fatal(err)
		}
		wh, _ := want.Hash()
		gh, _ := in.inst.Hash()
		if gh != wh || in.redraws != 0 {
			t.Errorf("slot %d: seed 0 instance %s (hash %.12s, %d redraws), want %s (hash %.12s)",
				slot, in.inst.Name, gh, in.redraws, want.Name, wh)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	fams := map[string]family{"dense": denseFamily, "tiny": tinyFamily}
	for _, b := range batches() {
		fams[b.name] = b.draw
	}
	for name, fam := range fams {
		hash := func(seed int64) string {
			in, err := fam(seed, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			h, err := in.inst.Hash()
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 draw the same instance", name)
		}
		if hash(1) != hash(1) {
			t.Errorf("%s: seed 1 draws differ between calls", name)
		}
	}
}

func TestSpecMatchesBenchmark(t *testing.T) {
	sp := loadSpec(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Errorf("spec workloads %v, benchmark runs %v", specNames, names)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var setup float64
	for _, m := range append(append([]metric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !valid.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

// A one-op run of every workload, timed and traced and with at most
// two instances an op, reports every metric the spec names and fails
// no op.
func TestSmokeEveryWorkload(t *testing.T) {
	sp := loadSpec(t)
	small := func(b *batch) workload {
		b.slots, b.quality, b.traceOps = min(b.slots, 2), 1, 1
		return workload{b.name, b.run, b.runTrace}
	}
	var wls []workload
	for _, b := range batches() {
		wls = append(wls, small(b))
	}
	srv := &serveLoad{pool: 4, traceOps: 4}
	wls = append(wls, workload{"serve", srv.run, srv.runTrace})
	for _, wl := range wls {
		for _, trace := range []bool{false, true} {
			cfg := runCfg{seed: 1, setupReps: 1, workDir: t.TempDir()}
			var buf bytes.Buffer
			if err := runOne(sp, wl, cfg, trace, "", &buf); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			var out map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lastLine(buf.String())), &out); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", wl.name, trace, err)
			}
			var res output
			json.Unmarshal([]byte(lastLine(buf.String())), &res)
			if len(out) != 4 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: result %s", wl.name, trace, lastLine(buf.String()))
			}
			if got, want := len(res.Metrics), len(sp.metrics(trace)); got != want {
				t.Errorf("%s trace=%v: %d metrics, spec names %d", wl.name, trace, got, want)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "other", Start: 200, End: 210},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
	if by := selfByName(spans); by["op"] != 50e-6 {
		t.Errorf("self time by name: op %v ms, want 5e-05", by["op"])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no data should be 0")
	}
}
