package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of compare.
const (
	improved     = "improved"
	noRegression = "no regression"
	regression   = "REGRESSION"
	unresolved   = "unresolved"
	worse        = "worse"
	noChange     = "no clear change"
	identical    = "identical"
	changed      = "CHANGED"
	// minPairs is the fewest pairs a gain may be claimed on.
	minPairs = 10
)

// quality metrics are deterministic for a seed, so compare treats
// them like the traced counts: any difference is a change.
var qualityMetrics = map[string]bool{"wire_per_hpwl": true, "vias_per_net": true, "area_per_cell_area": true}

// exactMetric reports whether m is compared value for value rather
// than statistically.
func exactMetric(m metric, perLayer bool) bool {
	return qualityMetrics[m.Name] || perLayer && (m.Unit == "count" || m.Unit == "ratio")
}

// verdict is compare's finding for one metric on one workload.
type verdict struct {
	metric                          metric
	pairs, wins                     int
	baseMed, baseQ1, baseQ3, newMed float64
	newQ1, newQ3                    float64
	result                          string
}

// judge compares paired runs of the parent (base) and the change
// (new). A gain holds when the change wins at least nine tenths of at
// least ten pairs and the medians differ by more than the parent's
// interquartile range. An end-to-end metric regresses when its median
// worsens by more than its bound; when either side's spread exceeds
// the bound the metric is unresolved unless every run of the change
// beats every run of the parent.
func judge(m metric, exact bool, base, new []float64) verdict {
	v := verdict{
		metric: m, pairs: len(base),
		baseMed: median(base), baseQ1: quantile(base, 0.25), baseQ3: quantile(base, 0.75),
		newMed: median(new), newQ1: quantile(new, 0.25), newQ3: quantile(new, 0.75),
	}
	lower := m.Better != "higher"
	better := func(a, b float64) bool { return lower && a < b || !lower && a > b }
	same := true
	for i := range base {
		if better(new[i], base[i]) {
			v.wins++
		}
		if new[i] != base[i] {
			same = false
		}
	}
	if exact {
		v.result = identical
		if !same {
			v.result = changed
		}
		return v
	}
	delta := math.Abs(v.newMed - v.baseMed)
	claim := v.pairs >= minPairs && v.wins*10 >= 9*v.pairs && delta > v.baseQ3-v.baseQ1 && better(v.newMed, v.baseMed)
	lost := 0
	for i := range base {
		if better(base[i], new[i]) {
			lost++
		}
	}
	if m.Bound == 0 {
		switch {
		case claim:
			v.result = improved
		case v.pairs >= minPairs && lost*10 >= 9*v.pairs && delta > v.baseQ3-v.baseQ1:
			v.result = worse
		default:
			v.result = noChange
		}
		return v
	}
	spread := math.Max(relSpread(v.baseQ1, v.baseQ3, v.baseMed), relSpread(v.newQ1, v.newQ3, v.newMed))
	allBetter := len(base) > 0
	for _, n := range new {
		for _, b := range base {
			if !better(n, b) {
				allBetter = false
			}
		}
	}
	switch {
	case spread > m.Bound && allBetter:
		v.result = improved
	case spread > m.Bound:
		v.result = unresolved
	case better(v.baseMed, v.newMed) && delta > m.Bound*math.Abs(v.baseMed):
		v.result = regression
	case claim:
		v.result = improved
	default:
		v.result = noRegression
	}
	return v
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", p, err)
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("load %s: %w", p, err)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartedNS < out[j].StartedNS })
	return out, nil
}

// pairRuns matches the runs of one workload and mode: runs of equal
// seeds pair in the order they ran; if the sides share no seed, runs
// pair in order.
func pairRuns(base, new []record) (b, n []record) {
	bySeed := map[int64][]record{}
	for _, r := range new {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	for _, r := range base {
		if q := bySeed[r.Seed]; len(q) > 0 {
			b, n = append(b, r), append(n, q[0])
			bySeed[r.Seed] = q[1:]
		}
	}
	if len(b) == 0 {
		k := min(len(base), len(new))
		return base[:k], new[:k]
	}
	return b, n
}

// compareRecords judges every spec metric on every workload and mode
// that both sides ran, in spec order.
func compareRecords(sp *spec, base, new []record) map[string][]verdict {
	group := func(rs []record) map[string][]record {
		g := map[string][]record{}
		for _, r := range rs {
			k := groupKey(r.Workload, r.Trace)
			g[k] = append(g[k], r)
		}
		return g
	}
	gb, gn := group(base), group(new)
	out := map[string][]verdict{}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			k := groupKey(wl.Name, trace)
			b, n := pairRuns(gb[k], gn[k])
			if len(b) == 0 {
				continue
			}
			for _, m := range sp.metrics(trace) {
				var bv, nv []float64
				for i := range b {
					bv = append(bv, b[i].Output.Metrics[m.Name].Value)
					nv = append(nv, n[i].Output.Metrics[m.Name].Value)
				}
				out[k] = append(out[k], judge(m, exactMetric(m, trace), bv, nv))
			}
		}
	}
	return out
}

func groupKey(workload string, trace bool) string {
	if trace {
		return workload + " (traced)"
	}
	return workload
}

// compareMain implements `bench compare BASE_DIR NEW_DIR` over two
// directories of -record output. It exits 1 when an end-to-end metric
// regresses on any workload.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE_DIR NEW_DIR")
		return 2
	}
	sp, err := readSpec(specFile)
	if err == nil {
		var base, new []record
		if base, err = loadRecords(args[0]); err == nil {
			new, err = loadRecords(args[1])
		}
		if err == nil {
			return printVerdicts(sp, compareRecords(sp, base, new))
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func printVerdicts(sp *spec, vs map[string][]verdict) int {
	status := 0
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			k := groupKey(wl.Name, trace)
			rows := vs[k]
			if len(rows) == 0 {
				continue
			}
			fmt.Printf("%s: %d pairs\n  %-30s %-36s %-36s %5s  %s\n", k, rows[0].pairs,
				"metric", "base median [q1, q3]", "new median [q1, q3]", "wins", "verdict")
			for _, v := range rows {
				fmt.Printf("  %-30s %-36s %-36s %5d  %s\n", v.metric.Name+" ("+v.metric.Unit+")",
					fmt.Sprintf("%.6g [%.6g, %.6g]", v.baseMed, v.baseQ1, v.baseQ3),
					fmt.Sprintf("%.6g [%.6g, %.6g]", v.newMed, v.newQ1, v.newQ3), v.wins, v.result)
				if v.result == regression {
					status = 1
				}
			}
		}
	}
	if len(vs) == 0 {
		fmt.Fprintln(os.Stderr, "bench compare: no workload has runs on both sides")
		return 2
	}
	return status
}
