package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/grid"
	"overcell/internal/verify"
)

// flowFn is a flow entry point.
type flowFn func(*gen.Instance, flow.Options) (*flow.Result, error)

// call is one flow run on each instance of an op. serveFlow is the
// same flow's name on ocserved's POST /runs.
type call struct {
	serveFlow string
	fn        flowFn
}

// batch is a closed-loop workload with one client. Op i routes the
// instances draw(seed, i, 0..slots-1) with each call in turn; every op
// draws fresh instances, so a run averages over as many distinct
// inputs as fit in it.
type batch struct {
	name  string
	slots int
	draw  family
	calls []call
	opts  flow.Options
	// quality ops fix the instance set the quality totals and the
	// result hash cover; the window runs at least that many. traceOps is
	// the traced run's fixed op count.
	quality, traceOps int
}

// quality sums a set of flow results and the yardsticks they are
// normalised by.
type quality struct {
	wire, vias, area, hpwl, cellArea, nets int64
}

func (q *quality) add(res *flow.Result, in instance) {
	q.wire += int64(res.WireLength)
	q.vias += int64(res.Vias)
	q.area += res.Area
	q.hpwl += in.hpwl
	q.cellArea += in.cellArea
	q.nets += int64(in.nets)
}

func (q *quality) merge(o quality) {
	q.wire += o.wire
	q.vias += o.vias
	q.area += o.area
	q.hpwl += o.hpwl
	q.cellArea += o.cellArea
	q.nets += o.nets
}

func (q quality) metrics() map[string]float64 {
	return map[string]float64{
		"wire_per_hpwl":      ratio(float64(q.wire), float64(q.hpwl)),
		"vias_per_net":       ratio(float64(q.vias), float64(q.nets)),
		"area_per_cell_area": ratio(float64(q.area), float64(q.cellArea)),
	}
}

// routed is one flow result with what checking and replaying it needs.
type routed struct {
	in        instance
	serveFlow string
	res       *flow.Result
	hash      string
	regions   []verify.Region
}

// opOut is the outcome of one op. lat, bytes and objs cover the flow
// calls only; drawing and checking the instances is not timed.
type opOut struct {
	lat         time.Duration
	bytes, objs uint64
	hashes      []string
	q           quality
	degraded    int
	redraws     int
	err         error
	kept        []routed
}

// regions is the obstacle specification in grid index space, built the
// way the flow builds it for its own verification.
func regions(inst *gen.Instance, g *grid.Grid) []verify.Region {
	var out []verify.Region
	for _, o := range inst.Obstacles() {
		cols, rows, ok := g.IndexWindow(o.Rect)
		if !ok {
			continue
		}
		out = append(out, verify.Region{
			Cols: cols, Rows: rows,
			BlocksH: o.Mask&grid.MaskH != 0,
			BlocksV: o.Mask&grid.MaskV != 0,
		})
	}
	return out
}

// routeOp runs op. With ly set every flow call is traced and its
// spans grafted under span parent; keep retains the results for the
// layer replays. A call of the flow its instance was screened with
// must reproduce the screening route's hash, and every level B result
// is re-verified here, independently of the verification the flow runs
// itself.
func (b *batch) routeOp(seed int64, op int, hc *heapCounter, ly *layers, parent int, keep bool) opOut {
	var out opOut
	fail := func(err error) {
		if out.err == nil {
			out.err = err
		}
	}
	ins := make([]instance, b.slots)
	for s := range ins {
		in, err := b.draw(seed, op, s)
		if err != nil {
			fail(fmt.Errorf("op %d slot %d: %w", op, s, err))
			return out
		}
		ins[s] = in
		out.redraws += in.redraws
	}
	for _, in := range ins {
		for _, c := range b.calls {
			// Every call starts from a collected heap, as in a fresh
			// ocroute process, so that garbage left by the previous call
			// or by the checks is not charged to this one.
			runtime.GC()
			b0, o0 := hc.read()
			opt := b.opts
			var ft *flowTrace
			if ly != nil {
				opt, ft = ly.begin(opt, c.serveFlow)
			}
			t0 := time.Now()
			res, err := c.fn(in.inst, opt)
			d := time.Since(t0)
			if ft != nil {
				ly.end(ft, d, parent, op)
			}
			b1, o1 := hc.read()
			out.lat += d
			out.bytes += b1 - b0
			out.objs += o1 - o0
			where := fmt.Sprintf("op %d %s on %s", op, c.serveFlow, in.inst.Name)
			if err != nil {
				fail(fmt.Errorf("%s: %w", where, err))
				continue
			}
			r := routed{in: in, serveFlow: c.serveFlow, res: res, hash: flow.Hash(res)}
			if c.serveFlow == in.screenFlow && r.hash != in.screenHash {
				fail(fmt.Errorf("%s: result hash %.12s, screening route %.12s", where, r.hash, in.screenHash))
			}
			if res.LevelB != nil {
				r.regions = regions(in.inst, res.BGrid)
				if err := verify.LevelB(res.LevelB, r.regions); err != nil {
					fail(fmt.Errorf("%s: %w", where, err))
				}
			}
			out.hashes = append(out.hashes, r.hash)
			out.q.add(res, in)
			out.degraded += res.Degraded
			if keep {
				out.kept = append(out.kept, r)
			}
		}
	}
	return out
}

// tally accumulates a run's ops.
type tally struct {
	attempted, failed int
	firstErr          error
	lats              []float64     // ms, successful ops only
	sum               time.Duration // op time of every op
	bytes, objs       uint64
	q                 quality
	digest            hash.Hash
	degraded, redraws int
}

func newTally() *tally { return &tally{digest: sha256.New()} }

// note records op; inQuality adds it to the quality totals and the
// result hash. want, when non-nil, is the op's reference hash list.
func (t *tally) note(out opOut, want []string, inQuality bool) {
	t.attempted++
	t.sum += out.lat
	err := out.err
	if err == nil && want != nil && !slices.Equal(out.hashes, want) {
		err = fmt.Errorf("result hashes differ from the untraced route")
	}
	if err != nil {
		t.fail(err)
		return
	}
	t.lats = append(t.lats, ms(out.lat))
	t.bytes += out.bytes
	t.objs += out.objs
	t.degraded += out.degraded
	t.redraws += out.redraws
	if inQuality {
		t.q.merge(out.q)
		for _, h := range out.hashes {
			t.digest.Write([]byte(h))
		}
	}
}

// fail counts a failure outside any op.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// drove counts the runs a serve drive sent and failed.
func (t *tally) drove(sent, failed int, first error) {
	t.attempted += sent
	t.failed += failed
	if t.firstErr == nil {
		t.firstErr = first
	}
}

func (t *tally) resultHash() string { return hex.EncodeToString(t.digest.Sum(nil)) }

// refSeed draws the op set-up routes. It is the same at every run
// seed, so that setup_s measures the same work in every run.
const refSeed = -1

// setupPass returns the batch's set-up pass: it draws, screens and
// routes op 0 at refSeed, counting it in t. Every pass must reproduce
// the first pass's hashes.
func (b *batch) setupPass(hc *heapCounter, t *tally) func() error {
	var ref []string
	return func() error {
		out := b.routeOp(refSeed, 0, hc, nil, 0, false)
		t.attempted++
		switch {
		case out.err != nil:
			t.fail(out.err)
		case ref == nil:
			ref = out.hashes
		case !slices.Equal(out.hashes, ref):
			t.fail(fmt.Errorf("set-up pass: hashes differ from the first pass"))
		}
		return nil
	}
}

// run measures the batch workload and returns its end-to-end metrics.
// It runs ops for cfg.seconds of wall time, and at least the quality
// ops.
func (b *batch) run(cfg runCfg) (*report, error) {
	hc := newHeapCounter()
	t := newTally()
	window := time.Duration(cfg.seconds * float64(time.Second))
	su, err := startSetups(cfg.setupReps, window, b.setupPass(hc, t))
	if err != nil {
		return nil, err
	}
	rs := startRSS()
	for op := 0; op < b.quality || su.elapsed() < window; op++ {
		if err := su.due(); err != nil {
			return nil, err
		}
		t.note(b.routeOp(cfg.seed, op, hc, nil, 0, false), nil, op < b.quality)
	}
	wall := su.elapsed()
	rss, err := rs.finish()
	if err != nil {
		return nil, err
	}
	setupDurs, err := su.finish()
	if err != nil {
		return nil, err
	}
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	n := float64(len(t.lats))
	m := map[string]float64{
		"setup_s":         median(setupDurs),
		"ops_per_s":       ratio(n, t.sum.Seconds()),
		"latency_ms_p50":  quantile(t.lats, 0.5),
		"latency_ms_p90":  quantile(t.lats, 0.9),
		"latency_ms_p99":  quantile(t.lats, 0.99),
		"alloc_mb_per_op": ratio(mib(t.bytes), n),
		"allocs_per_op":   ratio(float64(t.objs), n),
		"rss_mb_p50":      median(rss),
	}
	for k, v := range t.q.metrics() {
		m[k] = v
	}
	return &report{
		metrics: m, attempted: t.attempted, failed: t.failed, firstErr: t.firstErr,
		samples:    map[string]int{"setup_s": len(setupDurs), "latency": len(t.lats), "rss_mb_p50": len(rss)},
		resultHash: t.resultHash(),
		notes: []string{
			fmt.Sprintf("%d ops of %d instances x %d flows in %.1fs (%.1fs in flow calls); quality over the first %d ops; %d degraded nets, %d redrawn instances",
				len(t.lats), b.slots, len(b.calls), wall.Seconds(), t.sum.Seconds(), b.quality, t.degraded, t.redraws),
			fmt.Sprintf("peak resident set %.1f MiB (reported, not gated); set-up passes %.3v s", mib(peak), setupDurs),
		},
	}, nil
}

// runTrace is the traced run: traceOps ops untraced, then the same ops
// traced, each followed by the layer replays on its results. A traced
// op must reproduce the hashes of its untraced route.
func (b *batch) runTrace(cfg runCfg) (_ *report, err error) {
	hc := newHeapCounter()
	t := newTally()
	b.setupPass(hc, t)()
	var plain []float64
	want := make([][]string, b.traceOps)
	for op := 0; op < b.traceOps; op++ {
		out := b.routeOp(cfg.seed, op, hc, nil, 0, false)
		t.note(out, nil, false)
		plain = append(plain, ms(out.lat))
		want[op] = out.hashes
	}
	rp, err := newReplayer(cfg, b.opts, true)
	if err != nil {
		return nil, err
	}
	defer closeInto(rp, &err)
	log := newSpanLog()
	ly := newLayers(log)
	var traced []float64
	degraded, redraws := 0, 0
	for op := 0; op < b.traceOps; op++ {
		root := log.open("op", 0, op)
		out := b.routeOp(cfg.seed, op, hc, ly, root, true)
		log.close(root)
		t.note(out, want[op], false)
		traced = append(traced, ms(out.lat))
		degraded += out.degraded
		redraws += out.redraws
		if out.err == nil {
			if err := rp.replay(out.kept, log, op); err != nil {
				t.fail(err)
			}
		}
	}
	m := ly.metrics(b.traceOps)
	for k, v := range rp.metrics(b.traceOps) {
		m[k] = v
	}
	m["core.degraded_nets"] = float64(degraded) / float64(b.traceOps)
	m["gen.redraws"] = float64(redraws) / float64(b.traceOps)
	m["obs.trace_overhead_pct"] = 100 * (ratio(median(traced), median(plain)) - 1)
	return traceReport(cfg, b.name, log, ly, m, t)
}
