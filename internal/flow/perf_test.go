package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"overcell/internal/gen"
	"overcell/internal/obs/perf"
)

// perfReport runs the proposed flow over a fresh ami33-like instance
// with the whole timing surface pinned: the flow phases on a fixed-step
// clock, the perf collector on a constant clock and sampler. Returns
// the rendered report bytes.
func perfReport(t *testing.T) []byte {
	t.Helper()
	at := time.Unix(1700000000, 0)
	pc := perf.New(perf.Options{
		Run:     "ami33",
		Clock:   func() time.Time { return at },
		Sampler: func() perf.Sample { return perf.Sample{} },
	})
	opt := Options{
		Perf:  pc,
		RunID: "ami33",
		Clock: (&stepClock{now: time.Unix(0, 0), step: 3 * time.Millisecond}).read,
	}
	if _, err := Proposed(build(t, gen.Ami33Like), opt); err != nil {
		t.Fatal(err)
	}
	pc.Finish()
	var b bytes.Buffer
	if err := pc.Report().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestPerfReportDeterministic is the report-level determinism
// contract: with every timing input pinned, two identical runs render
// byte-identical reports.
func TestPerfReportDeterministic(t *testing.T) {
	a, b := perfReport(t), perfReport(t)
	if !bytes.Equal(a, b) {
		t.Errorf("report bytes differ between identical runs:\n%s\n---\n%s", a, b)
	}
}

// TestPerfReportHasNoParallelStratum pins the report shape of a
// one-net-at-a-time router: the phase stratum is present and complete,
// and no parallel stratum is rendered at all.
func TestPerfReportHasNoParallelStratum(t *testing.T) {
	raw := perfReport(t)
	var r perf.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if len(r.Phases) == 0 || !r.Complete {
		t.Fatalf("report has %d phases, complete=%t", len(r.Phases), r.Complete)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["parallel"]; ok {
		t.Errorf("report carries a parallel stratum: %s", keys["parallel"])
	}
}

// TestPerfCollectorWiredThroughFlow checks prepare() actually attaches
// the collector: phases arrive via the combined tracer even when the
// caller supplied no tracer of their own.
func TestPerfCollectorWiredThroughFlow(t *testing.T) {
	raw := perfReport(t)
	var r perf.Report
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"level-a": false, "level-b": false, "verify": false}
	for _, p := range r.Phases {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
		if p.WallNS <= 0 {
			t.Errorf("phase %q wall = %d, want > 0 from the stepping flow clock", p.Name, p.WallNS)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("report missing phase %q (got %s)", name, phaseNames(r.Phases))
		}
	}
}

func phaseNames(ps []perf.PhaseReport) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return fmt.Sprint(names)
}
