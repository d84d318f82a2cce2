package main

import (
	"testing"
)

func series(start, step float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = start + step*float64(i)
	}
	return xs
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	lat := metric{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	ops := metric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	layer := metric{Name: "tig.search_us_p50", Unit: "us", Better: "lower"}
	count := metric{Name: "tig.expanded", Unit: "count", Better: "lower"}
	base := series(100, 0.5) // 100 .. 104.5: spread about 2%
	for _, c := range []struct {
		name      string
		m         metric
		exact     bool
		base, new []float64
		want      string
	}{
		{"equal counts", count, true, series(7, 1), series(7, 1), identical},
		{"one count differs", count, true, series(7, 1), append(series(7, 1)[:9], 99), changed},
		{"clear gain", lat, false, base, scale(base, 0.8), improved},
		{"within bound", lat, false, base, scale(base, 1.05), noRegression},
		{"slower than bound", lat, false, base, scale(base, 1.2), regression},
		{"throughput drop", ops, false, base, scale(base, 0.8), regression},
		{"throughput gain", ops, false, base, scale(base, 1.25), improved},
		{"gain on too few pairs", lat, false, base[:5], scale(base[:5], 0.8), noRegression},
		{"wide spread", lat, false, series(50, 10), series(60, 10), unresolved},
		{"wide spread, every run better", lat, false, series(200, 10), series(50, 10), improved},
		{"layer gain", layer, false, base, scale(base, 0.5), improved},
		{"layer loss", layer, false, base, scale(base, 1.5), worse},
		{"layer noise", layer, false, base, []float64{104, 100, 103, 101, 102, 100.5, 104, 101, 103, 100}, noChange},
	} {
		if got := judge(c.m, c.exact, c.base, c.new).result; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPairRuns(t *testing.T) {
	rec := func(seed, at int64) record { return record{Seed: seed, StartedNS: at} }
	b, n := pairRuns(
		[]record{rec(1, 1), rec(2, 3), rec(3, 5)},
		[]record{rec(2, 2), rec(1, 4), rec(4, 6)})
	if len(b) != 2 || b[0].Seed != 1 || n[0].Seed != 1 || b[1].Seed != 2 || n[1].Seed != 2 {
		t.Errorf("seed pairing: %v / %v", b, n)
	}
	b, n = pairRuns([]record{rec(1, 1), rec(2, 3)}, []record{rec(5, 2), rec(6, 4), rec(7, 5)})
	if len(b) != 2 || n[0].Seed != 5 || n[1].Seed != 6 {
		t.Errorf("order pairing: %v / %v", b, n)
	}
}

func TestCompareRecordsExitStatus(t *testing.T) {
	sp := &spec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd:  []metric{{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	mk := func(vals []float64) []record {
		var rs []record
		for i, v := range vals {
			rs = append(rs, record{Workload: "w", Seed: int64(i), StartedNS: int64(i),
				Output: output{Metrics: map[string]valued{"latency_ms_p50": {v, "ms"}}}})
		}
		return rs
	}
	base := series(100, 0.5)
	if st := printVerdicts(sp, compareRecords(sp, mk(base), mk(scale(base, 1.01)))); st != 0 {
		t.Errorf("unchanged tree: exit %d, want 0", st)
	}
	if st := printVerdicts(sp, compareRecords(sp, mk(base), mk(scale(base, 1.3)))); st != 1 {
		t.Errorf("regression: exit %d, want 1", st)
	}
}
