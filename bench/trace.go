package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"overcell/internal/flow"
	"overcell/internal/obs"
	"overcell/internal/obs/perf"
	obsspan "overcell/internal/obs/span"
)

// span is one timed interval of a traced run. Spans of one op share
// Op; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory; they are written out
// once the run ends. Times are nanoseconds since the log was made.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its ID.
func (l *spanLog) open(name string, parent, op int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: time.Since(l.t0).Nanoseconds()})
	return id
}

// close ends span id.
func (l *spanLog) close(id int) {
	l.spans[id-1].End = time.Since(l.t0).Nanoseconds()
}

// graft adds the span tree of one flow call under parent: the run
// span keeps its name, phase spans become "phase.<name>" and net spans
// "net".
func (l *spanLog) graft(tree []obsspan.Span, parent, op int) {
	ids := make(map[string]int, len(tree))
	for _, s := range tree { // parents come before their children
		p, name := parent, s.Name
		if s.Parent != "" {
			p = ids[s.Parent]
		}
		switch s.Kind {
		case obsspan.KindPhase:
			name = "phase." + s.Name
		case obsspan.KindNet:
			name = "net"
		}
		id := len(l.spans) + 1
		ids[s.ID] = id
		l.spans = append(l.spans, span{
			ID: id, Parent: p, Name: name, Op: op,
			Start: s.Start.Sub(l.t0).Nanoseconds(), End: s.End.Sub(l.t0).Nanoseconds(),
		})
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover, counting overlapping children once.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// writeSpans writes the spans and the per-name self times to path.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, selfByName(spans), spans}, "", " ")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// traceReport writes a traced run's spans and wraps its metrics. The
// level-a, level-b and verify phase times come from the perf reports
// and the unattributed time from the span trees, so their sum checks
// both against the benchmark's own stopwatch: a gap above 5% fails
// the run.
func traceReport(cfg runCfg, name string, log *spanLog, ly *layers, m map[string]float64, t *tally) (*report, error) {
	path := filepath.Join(cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := writeSpans(path, name, cfg.seed, log.spans); err != nil {
		return nil, err
	}
	self := selfByName(log.spans)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var top []string
	for _, k := range names[:min(8, len(names))] {
		top = append(top, fmt.Sprintf("%s %.1fms", k, self[k]))
	}
	phases := ly.phaseNS["level-a"] + ly.phaseNS["level-b"] + ly.phaseNS["verify"]
	gap := ratio(math.Abs(float64(phases+ly.outsideNS-ly.runNS)), float64(ly.runNS))
	if gap > 0.05 {
		t.fail(fmt.Errorf("phases plus unattributed time miss flow.run_ms by %.1f%%", 100*gap))
	}
	return &report{
		metrics: m, attempted: t.attempted, failed: t.failed, firstErr: t.firstErr,
		notes: []string{
			"spans written to " + path,
			"self time: " + strings.Join(top, ", "),
			fmt.Sprintf("level-a %.3f + level-b %.3f + verify %.3f + unattributed %.3f ms = flow.run_ms %.3f ms within %.2f%%",
				float64(ly.phaseNS["level-a"])/1e6, float64(ly.phaseNS["level-b"])/1e6, float64(ly.phaseNS["verify"])/1e6,
				float64(ly.outsideNS)/1e6, float64(ly.runNS)/1e6, 100*gap),
		},
	}, nil
}

// layers accumulates the per-layer view of a traced run's flow calls:
// phase times, phase allocation and speculation totals from each
// call's perf report, time outside every phase from its span tree,
// and the routing events neither of them keeps.
type layers struct {
	log *spanLog
	ev  events
	// runNS is the benchmark's stopwatch time in flow calls and
	// outsideNS the part of it outside every phase, as the span trees'
	// run self time gives it.
	runNS, outsideNS      int64
	phaseNS               map[string]int64
	phaseBytes            map[string]uint64
	speculated, committed int64
	workers               int
	// netSpans counts routing attempts (net spans) and distinctNets
	// the nets they were for, summed over calls.
	netSpans, distinctNets int64
}

func newLayers(log *spanLog) *layers {
	return &layers{log: log, phaseNS: map[string]int64{}, phaseBytes: map[string]uint64{}}
}

// flowTrace is one traced flow call in progress.
type flowTrace struct {
	spans *obsspan.Builder
	perf  *perf.Collector
}

// begin instruments opt for one traced call of the flow name.
// The span builder opens its run span last, right before the call.
func (ly *layers) begin(opt flow.Options, name string) (flow.Options, *flowTrace) {
	ft := &flowTrace{perf: perf.New(perf.Options{Run: name})}
	ft.spans = obsspan.NewBuilder("flow."+name, nil)
	opt.Tracer = obs.Combine(ft.spans, &ly.ev)
	opt.Perf = ft.perf
	return opt, ft
}

// end closes the call, which the benchmark's stopwatch timed at d,
// folds its reports in and grafts its spans under parent. The run span
// closes first, before the perf collector reads its end-of-run
// counters.
func (ly *layers) end(ft *flowTrace, d time.Duration, parent, op int) {
	ft.spans.Finish()
	ft.perf.Finish()
	rep := ft.perf.Report()
	tree := ft.spans.Snapshot()
	ly.runNS += d.Nanoseconds()
	ly.outsideNS += obsspan.Summarise(tree).RunSelfNS
	for _, p := range rep.Phases {
		ly.phaseNS[p.Name] += p.WallNS
		ly.phaseBytes[p.Name] += p.Bytes
	}
	if p := rep.Parallel; p != nil {
		ly.speculated += p.Speculated
		ly.committed += p.Committed
	}
	ly.workers = max(ly.workers, rep.Workers)
	nets := map[string]bool{}
	for _, s := range tree {
		if s.Kind == obsspan.KindNet {
			ly.netSpans++
			nets[s.Name] = true
		}
	}
	ly.distinctNets += int64(len(nets))
	ly.log.graft(tree, parent, op)
}

// metrics returns the per-layer flow, core and tig metrics of ops
// traced ops, per op.
func (ly *layers) metrics(ops int) map[string]float64 {
	n := float64(ops)
	c := &ly.ev
	return map[string]float64{
		"flow.run_ms":           float64(ly.runNS) / 1e6 / n,
		"flow.unattributed_ms":  float64(ly.outsideNS) / 1e6 / n,
		"channel.level_a_pct":   100 * ratio(float64(ly.phaseNS["level-a"]), float64(ly.runNS)),
		"core.level_b_ms":       float64(ly.phaseNS["level-b"]) / 1e6 / n,
		"core.level_b_alloc_mb": mib(ly.phaseBytes["level-b"]) / n,
		"verify.ms":             float64(ly.phaseNS["verify"]) / 1e6 / n,
		"verify.alloc_mb":       mib(ly.phaseBytes["verify"]) / n,

		"core.attempts_per_net":      ratio(float64(ly.netSpans), float64(ly.distinctNets)),
		"core.escalations":           float64(c.escalations) / n,
		"core.relaxed_retries":       float64(c.relaxed) / n,
		"core.ripup_attempts":        float64(c.ripups) / n,
		"core.ripup_recovered_ratio": ratio(float64(c.recovered), float64(c.ripups)),
		"core.select_pruned":         float64(c.selectPruned) / n,
		"core.speculated":            float64(ly.speculated) / n,
		"core.conflicts":             float64(ly.speculated-ly.committed) / n,
		"core.spec_useful_ratio":     ratio(float64(ly.committed), float64(ly.speculated)),
		"core.workers":               float64(ly.workers),
		"core.budget_trips":          float64(c.budgetTrips) / n,

		"tig.searches":        float64(c.searches) / n,
		"tig.expanded":        float64(c.expanded) / n,
		"tig.pruned":          float64(c.pruned) / n,
		"tig.exhausted_ratio": ratio(float64(c.exhausted), float64(c.searches)),
	}
}

// events is an obs.Tracer tallying the routing events that neither the
// span trees nor the perf reports keep.
type events struct {
	searches, expanded, pruned, exhausted int64
	selectPruned                          int64
	escalations, relaxed                  int64
	ripups, recovered                     int64
	budgetTrips                           int64
}

// Enabled implements obs.Tracer.
func (c *events) Enabled() bool { return true }

// Emit implements obs.Tracer.
func (c *events) Emit(e obs.Event) {
	switch e.Type {
	case obs.EvMBFS:
		c.searches++
		c.expanded += int64(e.Expanded)
		c.pruned += int64(e.Pruned)
		if e.Paths == 0 {
			c.exhausted++
		}
	case obs.EvSelect:
		c.selectPruned += int64(e.Pruned)
	case obs.EvEscalate:
		c.escalations++
		if e.Relaxed {
			c.relaxed++
		}
	case obs.EvRipup:
		c.ripups++
		if !e.Failed {
			c.recovered++
		}
	case obs.EvBudget:
		c.budgetTrips++
	}
}
