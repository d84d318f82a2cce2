// Package serve is the router's live ops surface: an HTTP service
// that accepts routing jobs and exposes the observability stack while
// they run.
//
// Endpoints:
//
//	GET  /healthz              liveness probe ("ok overcell <version>")
//	GET  /metrics              Prometheus text-format registry scrape
//	POST /runs                 submit a routing job (instance JSON)
//	GET  /runs                 JSON list of runs, newest first (?state= filters)
//	GET  /runs/{id}            one run: state, result, span summary
//	GET  /runs/{id}/events     live SSE event stream (Last-Event-ID resume)
//	GET  /runs/{id}/congestion   commit-boundary congestion time-series (JSON)
//	GET  /runs/{id}/congestion.svg  animated congestion heatmap
//	GET  /runs/{id}/heatmap.svg  congestion heatmap of a finished run
//	DELETE /runs/{id}          cancel an active run
//	GET  /debug/pprof/*        standard pprof handlers
//
// A job body is a bare gen instance JSON document, decoded once. The
// flow, budget and wait knobs come only from the query (?flow=proposed&
// wait=1&deadline_ms=500&net_budget=N&total_budget=N&partial=1&
// heat_win=8); a negative number is refused with 400, and so is a body
// that is not an instance, such as a {"flow", "instance"} wrapper
// object, which has no rows.
//
// Each run executes the chosen flow under a robust.Budget bound to a
// context: asynchronous runs are scoped to the server's lifetime,
// while ?wait=1 runs are scoped to the HTTP request itself — client
// disconnect cancels the routing run (request-scoped cancellation).
// MaxRuns caps concurrent routing; MaxPending caps the queue behind
// it, and a full queue rejects further submissions with 503.
//
// Every run feeds five observers at once: the shared goroutine-safe
// metrics.Tracer registered on the server's registry (live /metrics
// counters), a per-run span.Builder (the run → phase → net trace, whose
// summary gives the run's phase times), a per-run unregistered
// metrics.Tracer (the aggregate summary shown in the run detail), a
// per-run stream.Broker (the /runs/{id}/events SSE fan-out) and a
// per-run congest.Series (the /runs/{id}/congestion time-series,
// sampled at net commit boundaries). The heatmap is not an observer:
// heatmap.svg tiles the run's kept level B grid on request. There is
// no per-run allocation report: the runtime's allocation counters are
// process-wide, and runs overlap. Runs execute under pprof labels
// (run, phase), which are per goroutine, so profiles captured via
// /debug/pprof while jobs route are attributable. Config.StreamCap = -1
// turns the stream and congestion observers off entirely.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/obs"
	"overcell/internal/obs/congest"
	"overcell/internal/obs/metrics"
	"overcell/internal/obs/span"
	"overcell/internal/obs/stream"
	"overcell/internal/render"
	"overcell/internal/robust"
	"overcell/internal/robust/fault"
	"overcell/internal/serve/journal"
)

// Run states.
const (
	StatePending  = "pending"
	StateRunning  = "running"
	StateDone     = "done"     // clean completion
	StatePartial  = "partial"  // sticky budget trip with a verified partial result
	StateFailed   = "failed"   // error, no usable result
	StateCanceled = "canceled" // canceled before or while routing
)

// Config tunes a Server.
type Config struct {
	// MaxRuns caps concurrently routing jobs; further submissions queue
	// as pending. 0 means 2.
	MaxRuns int
	// MaxPending caps queued (pending, not yet routing) runs; beyond
	// it, POST /runs is rejected with 503 so a submission burst cannot
	// grow goroutines and parsed instances without bound. 0 means 16.
	MaxPending int
	// KeepRuns caps retained finished runs; the oldest are evicted
	// first. 0 means 64.
	KeepRuns int
	// BaseCtx scopes asynchronous runs; nil means context.Background().
	// Cancelling it cancels every active run.
	BaseCtx context.Context
	// Journal, when non-nil, makes the run lifecycle durable: every
	// accepted payload and state transition is appended, so a
	// restarted server can reconstruct finished runs and requeue the
	// ones a crash interrupted (see Recover). A failed append degrades
	// durability, never availability: the run proceeds and the failure
	// is counted in ocroute_journal_write_errors_total.
	Journal *journal.Journal
	// Retry is ignored: a run routes once per process life (see
	// execute).
	//
	// Deprecated: Retry exists only so that the benchmark under bench/,
	// which must also build against older checkouts, keeps compiling.
	Retry robust.Policy
	// StreamCap sizes each run's event-stream ring buffer (events
	// retained for SSE replay and Last-Event-ID resume). 0 means
	// stream.DefaultCap; negative disables live telemetry entirely — no
	// broker, no congestion series, the PR 8 tracer chain — for callers
	// that want the routing hot path free of every telemetry branch.
	StreamCap int
	// StreamHeartbeat is the SSE keep-alive comment interval while no
	// events flow. 0 means 15s.
	StreamHeartbeat time.Duration
	// Version, when non-empty, is echoed in the /healthz body
	// ("ok overcell <version>") and published as
	// ocroute_build_info{version,go} 1.
	Version string
	// Logger receives the server's structured lifecycle log (submits,
	// attempts, transitions, recovery, drain), every record correlated
	// by run_id and attempt. Nil discards.
	Logger *slog.Logger
}

type flowFn func(*gen.Instance, flow.Options) (*flow.Result, error)

// Server owns the run store, the metrics registry and the HTTP mux.
// Create with New, expose with Handler.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	mtr   *metrics.Tracer
	mux   *http.ServeMux
	sem   chan struct{}
	flows map[string]flowFn

	active   *metrics.Gauge
	finished map[string]*metrics.Counter // by final state
	rejected *metrics.Counter
	httpReqs *metrics.Counter

	// Run-lifecycle durability families (PR 8): recovery outcomes,
	// journal write failures, and the drain state the load balancer
	// watches via /healthz.
	recovered   map[string]*metrics.Counter // by outcome
	journalErrs *metrics.Counter
	drainG      *metrics.Gauge
	draining    atomic.Bool
	log         *slog.Logger

	// Live-telemetry families (PR 9): the event-stream fan-out and the
	// commit-boundary congestion series.
	streamEvents   *metrics.Counter // published to run brokers, folded at run end
	streamDropped  *metrics.Counter // slow-subscriber drops, counted as observed
	streamSubs     *metrics.Gauge   // currently attached SSE subscribers
	queueWait      *metrics.Histogram
	congestSamples *metrics.Counter
	congestPeak    *metrics.Gauge
	congestOver    *metrics.Gauge
	congestUtilH   *metrics.Gauge
	congestUtilV   *metrics.Gauge

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // submission order, oldest first
	nextID int
}

// run is the server-side record of one job.
type run struct {
	id, flowName, instance string
	state                  string
	submitted              time.Time
	started, finished      time.Time
	err                    string
	heatWin                int

	// instHash is the canonical instance content hash; resultHash the
	// result digest (flow.Hash) once finished. Equal instance hashes
	// imply equal result hashes — the invariant crash recovery checks.
	instHash   string
	resultHash string
	// attempts counts routing executions (one per process life); recovered
	// marks a run reconstructed or requeued from the journal; requeue
	// marks an in-flight run checkpoint-canceled by a drain, to be
	// journaled as interrupted (= requeue on next start) rather than
	// terminally canceled.
	attempts  int
	recovered bool
	requeue   bool

	cancel  context.CancelFunc
	done    chan struct{}
	builder *span.Builder
	stats   *metrics.Tracer // the detail view's summary; nothing exports it
	// broker fans the run's events out to SSE subscribers; series
	// records the commit-boundary congestion samples. Both nil when
	// Config.StreamCap < 0 and on runs recovered in a terminal state
	// (their event history died with the old process).
	broker *stream.Broker
	series *congest.Series

	res    *flow.Result
	resRec *RunResult // summary view; survives restarts when res cannot
}

// New builds a Server with its own metrics registry.
func New(cfg Config) *Server {
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 2
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 16
	}
	if cfg.KeepRuns <= 0 {
		cfg.KeepRuns = 64
	}
	if cfg.BaseCtx == nil {
		cfg.BaseCtx = context.Background()
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 15 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := metrics.NewRegistry()
	s := &Server{
		cfg:  cfg,
		reg:  reg,
		mtr:  metrics.NewTracer(reg),
		mux:  http.NewServeMux(),
		sem:  make(chan struct{}, cfg.MaxRuns),
		runs: make(map[string]*run),
		flows: map[string]flowFn{
			"baseline":    flow.TwoLayerBaseline,
			"proposed":    flow.Proposed,
			"channel4":    flow.FourLayerChannel,
			"channelfree": flow.ChannelFree,
		},
		active:   reg.Gauge("ocserved_runs_active", "Routing runs currently executing."),
		finished: make(map[string]*metrics.Counter),
		rejected: reg.Counter("ocserved_runs_rejected_total",
			"Submissions rejected because the pending-run queue was full."),
		httpReqs: reg.Counter("ocserved_http_requests_total", "HTTP requests served."),
	}
	s.log = cfg.Logger
	for _, st := range []string{StateDone, StatePartial, StateFailed, StateCanceled} {
		s.finished[st] = reg.Counter("ocserved_runs_finished_total",
			"Routing runs finished, by final state.", metrics.L("state", st))
	}
	s.recovered = make(map[string]*metrics.Counter)
	for _, oc := range []string{"finished", "requeued", "failed"} {
		s.recovered[oc] = reg.Counter("ocroute_runs_recovered_total",
			"Runs reconstructed from the journal at startup, by outcome.", metrics.L("outcome", oc))
	}
	s.journalErrs = reg.Counter("ocroute_journal_write_errors_total",
		"Journal appends that failed; the run proceeded without durability for that record.")
	s.drainG = reg.Gauge("ocserved_draining",
		"1 while the server is draining (rejecting new runs, waiting for in-flight ones).")
	s.streamEvents = reg.Counter("ocserved_stream_events_total",
		"Events published to run event-stream brokers, folded in as each run finishes.")
	s.streamDropped = reg.Counter("ocserved_stream_dropped_total",
		"Events lost to the slow-subscriber drop policy (ring eviction before the subscriber read them).")
	s.streamSubs = reg.Gauge("ocserved_stream_subscribers",
		"SSE event-stream subscribers currently attached.")
	s.queueWait = reg.Histogram("ocserved_run_queue_wait_ms",
		"Time runs spent queued for a routing slot, submission to routing start.")
	s.congestSamples = reg.Counter("ocroute_congestion_samples_total",
		"Commit-boundary congestion samples recorded across all runs.")
	s.congestPeak = reg.Gauge("ocroute_congestion_peak_occupancy_bp",
		"Hottest congestion tile of the most recent net commit, in basis points.")
	s.congestOver = reg.Gauge("ocroute_congestion_overflow_tiles",
		"Tiles at or over the overflow threshold after the most recent net commit.")
	s.congestUtilH = reg.Gauge("ocroute_congestion_track_util_bp",
		"Whole-grid track utilisation after the most recent net commit, in basis points, by layer.",
		metrics.L("layer", "h"))
	s.congestUtilV = reg.Gauge("ocroute_congestion_track_util_bp",
		"Whole-grid track utilisation after the most recent net commit, in basis points, by layer.",
		metrics.L("layer", "v"))
	if cfg.Version != "" {
		reg.Gauge("ocroute_build_info",
			"Build metadata; the value is always 1.",
			metrics.L("version", cfg.Version), metrics.L("go", runtime.Version())).Set(1)
	}
	s.routes()
	return s
}

// Registry returns the server's metrics registry, for callers that
// want to add their own series next to the routing ones.
func (s *Server) Registry() *metrics.Registry { return s.reg }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			// Load balancers stop sending traffic on the first non-200;
			// in-flight runs keep finishing behind the scenes.
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		// The version rides after the "ok" token so `grep -q ok` probes
		// keep working while humans and dashboards see the build.
		if s.cfg.Version != "" {
			fmt.Fprintln(w, "ok overcell", s.cfg.Version)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		if err := s.reg.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	s.mux.HandleFunc("POST /runs", s.handleSubmit)
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /runs/{id}/heatmap.svg", s.handleHeatmap)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /runs/{id}/congestion", s.handleCongestion)
	s.mux.HandleFunc("GET /runs/{id}/congestion.svg", s.handleCongestionSVG)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpReqs.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

// handleSubmit serves POST /runs: it checks the query, decodes the
// body once as an instance, registers and journals the run, and starts
// it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// The drain window is short; tell well-behaved clients when to
		// try the replacement instance.
		w.Header().Set("Retry-After", "5")
		http.Error(w, "server draining, not accepting new runs", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	flowName := q.Get("flow")
	if flowName == "" {
		flowName = "proposed"
	}
	fn, ok := s.flows[flowName]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown flow %q", flowName), http.StatusBadRequest)
		return
	}
	opts, err := runOpts(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wait := truthy(q.Get("wait"))
	inst, err := gen.ReadJSON(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		http.Error(w, "bad instance: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The journal stores the canonical form, so a requeued run
	// re-executes byte-identical input, and the hash names those bytes.
	canon, err := inst.CanonicalJSON()
	if err != nil {
		http.Error(w, "canonicalise instance: "+err.Error(), http.StatusBadRequest)
		return
	}
	instHash := gen.HashBytes(canon)

	// Asynchronous runs live until the server shuts down; waited runs
	// are scoped to the request, so a client disconnect cancels the
	// routing work it was waiting for.
	parent := s.cfg.BaseCtx
	if wait {
		parent = r.Context()
	}
	ctx, cancel := context.WithCancel(parent)

	s.mu.Lock()
	// Admission control: MaxRuns bounds routing concurrency, MaxPending
	// bounds the queue behind it. The check shares the registration
	// critical section, so the pending count is exact.
	if s.pendingLocked() >= s.cfg.MaxPending {
		s.mu.Unlock()
		cancel()
		s.rejected.Inc()
		s.log.Warn("run rejected: pending queue full",
			"flow", flowName, "instance", inst.Name, "max_pending", s.cfg.MaxPending)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "pending run queue full", http.StatusServiceUnavailable)
		return
	}
	s.nextID++
	id := fmt.Sprintf("run-%d", s.nextID)
	ru := &run{
		id: id, flowName: flowName, instance: inst.Name,
		state: StatePending, submitted: time.Now(), heatWin: opts.HeatWin, //oc:clock-ok run lifecycle timestamps are ops metadata, not routing inputs
		instHash: instHash,
		cancel:   cancel, done: make(chan struct{}),
		builder: span.NewBuilder(id, nil),
		stats:   metrics.NewTracer(nil),
	}
	s.attachTelemetry(ru)
	s.runs[id] = ru
	s.order = append(s.order, id)
	evicted := s.evictLocked()
	s.mu.Unlock()
	s.log.Info("run accepted",
		"run_id", id, "flow", flowName, "instance", inst.Name,
		"instance_hash", instHash, "wait", wait)

	// The accepted record is the run's durable birth certificate: the
	// canonical payload plus every knob needed to re-execute it. It is
	// written before the response, so an acknowledged run is never lost.
	s.journalAppend(&journal.Record{
		Kind: journal.KindAccepted, Run: id, Time: ru.submitted,
		Flow: flowName, Name: inst.Name,
		Instance: canon, InstanceHash: instHash,
		Opts: &opts,
	})
	for _, eid := range evicted {
		s.journalAppend(&journal.Record{
			Kind: journal.KindEvicted, Run: eid,
			Time: time.Now(), //oc:clock-ok run lifecycle timestamps are ops metadata, not routing inputs
		})
	}
	fault.Crash("serve.accepted")

	go s.execute(ctx, ru, fn, inst, opts)

	if wait {
		<-ru.done
	}
	w.Header().Set("Content-Type", "application/json")
	if !wait {
		w.WriteHeader(http.StatusAccepted)
	}
	writeJSON(w, s.status(ru, true))
}

// runOpts reads the run knobs from a submission's query. Each number
// must be a non-negative integer; 0, like an absent knob, means
// unbounded (deadline_ms, net_budget, total_budget) or the default
// window (heat_win).
func runOpts(q url.Values) (journal.RunOpts, error) {
	var err error
	knob := func(key string, bits int) int64 {
		v := q.Get(key)
		if v == "" || err != nil {
			return 0
		}
		n, perr := strconv.ParseInt(v, 10, bits)
		switch {
		case perr != nil:
			err = fmt.Errorf("bad %s: %w", key, perr)
		case n < 0:
			err = fmt.Errorf("bad %s: %d is negative", key, n)
		}
		return n
	}
	opts := journal.RunOpts{
		DeadlineMS:  knob("deadline_ms", 64),
		NetBudget:   knob("net_budget", 64),
		TotalBudget: knob("total_budget", 64),
		HeatWin:     int(knob("heat_win", strconv.IntSize)),
		Partial:     truthy(q.Get("partial")),
	}
	return opts, err
}

// truthy reads a boolean query flag.
func truthy(v string) bool { return v == "1" || v == "true" }

// execute routes one job. It runs on its own goroutine; every shared
// field mutation happens under s.mu.
func (s *Server) execute(ctx context.Context, ru *run, fn flowFn, inst *gen.Instance, ro journal.RunOpts) {
	defer close(ru.done)
	defer ru.cancel()
	// Wait for a routing slot, abandoning the run if it is canceled
	// while still queued.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.transition(ru, StateCanceled, nil, errors.New("canceled while pending"))
		return
	}
	s.mu.Lock()
	if terminalState(ru.state) {
		// A cancel raced this run into a terminal state while it waited
		// for a slot (pending cancels transition directly); do not route
		// a dead run.
		s.mu.Unlock()
		return
	}
	ru.state = StateRunning
	ru.attempts = 1
	ru.started = time.Now() //oc:clock-ok run lifecycle timestamps are ops metadata, not routing inputs
	queued := ru.started.Sub(ru.submitted)
	s.mu.Unlock()
	s.queueWait.Observe(queued.Milliseconds())
	s.active.Inc()
	defer s.active.Dec()

	// The broker joins the tracer chain only when live telemetry is on
	// (a nil *stream.Broker must never reach Combine: the interface
	// would be non-nil and its Emit would dereference the nil pointer).
	trs := []obs.Tracer{s.mtr, ru.builder, ru.stats}
	if ru.broker != nil {
		trs = append(trs, ru.broker)
	}
	opts := flow.Options{
		Tracer: obs.Combine(trs...),
		Ctx:    ctx,
		Limits: robust.Limits{
			NetExpansions:   ro.NetBudget,
			TotalExpansions: ro.TotalBudget,
			Timeout:         time.Duration(ro.DeadlineMS) * time.Millisecond,
		},
		AllowPartial: ro.Partial,
		// pprof labels, so /debug/pprof profiles captured during the
		// run attribute per run and phase.
		RunID:         ru.id,
		ProfileLabels: true,
	}
	if ru.series != nil {
		opts.Congest = &congestObserver{series: ru.series, s: s}
	}
	// One execution per process life: the routing is deterministic, so
	// a failure would repeat on re-execution. The started record is
	// journaled before the run routes, so a crash mid-run requeues it on
	// restart — the one re-execution there is.
	s.log.Info("run attempt started",
		"run_id", ru.id, "attempt", 1, "flow", ru.flowName,
		"queue_wait_ms", queued.Milliseconds())
	s.journalAppend(&journal.Record{
		Kind: journal.KindStarted, Run: ru.id, Attempt: 1,
		Time: time.Now(), //oc:clock-ok run lifecycle timestamps are ops metadata, not routing inputs
	})
	fault.Crash("serve.started")
	res, err := fn(inst, opts)
	ru.builder.Finish()

	state := StateDone
	switch {
	case err == nil:
		state = StateDone
	case res != nil && res.LevelB != nil:
		// Sticky trip with a verified partial result.
		state = StatePartial
		if errors.Is(err, robust.ErrCanceled) {
			state = StateCanceled
		}
	case errors.Is(err, robust.ErrCanceled):
		state = StateCanceled
	default:
		state = StateFailed
	}
	s.transition(ru, state, res, err)
}

// transition finalises a run: records the outcome, bumps the server
// metrics, and journals the terminal record. The first terminal
// transition wins — a cancel racing a natural completion finalises
// (and journals) exactly once.
func (s *Server) transition(ru *run, state string, res *flow.Result, err error) {
	s.mu.Lock()
	if terminalState(ru.state) {
		s.mu.Unlock()
		return
	}
	ru.state = state
	ru.finished = time.Now() //oc:clock-ok run lifecycle timestamps are ops metadata, not routing inputs
	ru.res = res
	if err != nil {
		ru.err = err.Error()
	}
	ru.resRec = resultView(res)
	if res != nil {
		ru.resultHash = flow.Hash(res)
	}
	rec := terminalRecord(ru, state)
	var dur time.Duration
	if !ru.started.IsZero() {
		dur = ru.finished.Sub(ru.started)
	}
	attempts := ru.attempts
	s.mu.Unlock()
	if c, ok := s.finished[state]; ok {
		c.Inc()
	}
	// End of stream: SSE subscribers drain the retained tail and see the
	// end marker; the published count folds into the cumulative family.
	if ru.broker != nil {
		ru.broker.Close()
		published, _, _ := ru.broker.Stats()
		s.streamEvents.Add(int64(published))
	}
	logAttrs := []any{
		"run_id", ru.id, "state", state, "attempt", attempts,
		"duration_ms", dur.Milliseconds(),
	}
	if err != nil {
		logAttrs = append(logAttrs, "error", err.Error())
		s.log.Warn("run finished", logAttrs...)
	} else {
		s.log.Info("run finished", logAttrs...)
	}
	fault.Crash("serve.finish")
	s.journalAppend(rec)
}

// terminalRecord builds the journal record for a finalised run: a
// drain checkpoint writes interrupted (= requeue on restart), anything
// else writes the terminal finished record. Caller holds s.mu.
func terminalRecord(ru *run, state string) *journal.Record {
	if ru.requeue && state == StateCanceled {
		return &journal.Record{
			Kind: journal.KindInterrupted, Run: ru.id, Time: ru.finished,
			Attempts: ru.attempts,
		}
	}
	return &journal.Record{
		Kind: journal.KindFinished, Run: ru.id, Time: ru.finished,
		State: state, Error: ru.err, Result: ru.resRec, ResultHash: ru.resultHash,
		Attempts: ru.attempts,
	}
}

// resultView projects a flow result into its JSON summary form; nil in,
// nil out.
func resultView(res *flow.Result) *RunResult {
	if res == nil {
		return nil
	}
	rr := &RunResult{
		Flow: res.Flow, Area: res.Area, Width: res.Width, Height: res.Height,
		WireLength: res.WireLength, Vias: res.Vias, Degraded: res.Degraded,
	}
	if res.LevelB != nil {
		rr.LevelBNets = len(res.LevelB.Routes)
		rr.Expanded = res.LevelB.Expanded
	}
	return rr
}

// terminalState reports whether st is one of the four final run
// states.
func terminalState(st string) bool {
	switch st {
	case StateDone, StatePartial, StateFailed, StateCanceled:
		return true
	}
	return false
}

// pendingLocked counts runs still queued for a routing slot. Caller
// holds s.mu.
func (s *Server) pendingLocked() int {
	n := 0
	for _, ru := range s.runs {
		if ru.state == StatePending {
			n++
		}
	}
	return n
}

// evictLocked drops the oldest finished runs beyond cfg.KeepRuns and
// returns their ids so the caller can journal the evictions after
// releasing the lock. Caller holds s.mu.
func (s *Server) evictLocked() []string {
	var dropped []string
	for len(s.order) > s.cfg.KeepRuns {
		evicted := false
		for i, id := range s.order {
			ru := s.runs[id]
			if terminalState(ru.state) {
				delete(s.runs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = append(dropped, id)
				evicted = true
				break
			}
		}
		if !evicted {
			return dropped // everything retained is still active
		}
	}
	return dropped
}

// RunResult is the JSON view of a finished flow result: the summary
// the journal keeps, so a run recovered after a restart serves the same
// bytes.
type RunResult = journal.ResultRecord

// RunStatus is the JSON view of one run.
type RunStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Flow      string     `json:"flow"`
	Instance  string     `json:"instance,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// InstanceHash is the canonical content hash of the submitted
	// instance; ResultHash digests the routed result once finished.
	// Together they state the determinism contract: equal instance
	// hashes produce equal result hashes, across restarts and crash
	// recovery.
	InstanceHash string `json:"instance_hash,omitempty"`
	ResultHash   string `json:"result_hash,omitempty"`
	// Attempts counts routing executions, one per process life;
	// Recovered marks a run reconstructed or requeued from the journal
	// after a restart.
	Attempts  int  `json:"attempts,omitempty"`
	Recovered bool `json:"recovered,omitempty"`
	// DurationMS is the elapsed routing time: started to finished, or
	// started to now for a run still going. 0 while pending.
	DurationMS int64      `json:"duration_ms,omitempty"`
	Result     *RunResult `json:"result,omitempty"`
	// StreamEvents / StreamDropped report the run's event-stream fan-out:
	// events published to the broker and events dropped across all
	// subscribers that fell behind the ring buffer. Zero when streaming
	// is disabled.
	StreamEvents  uint64        `json:"stream_events,omitempty"`
	StreamDropped uint64        `json:"stream_dropped,omitempty"`
	Spans         *span.Summary `json:"spans,omitempty"`
	// Summary is the per-run collector report (detail view only).
	Summary string `json:"summary,omitempty"`
	// SpanTree is the full span list (detail view with ?spans=1).
	SpanTree []span.Span `json:"span_tree,omitempty"`
}

// status snapshots one run under the lock. detail adds the span
// summary; the collector text and span tree are added by handleGet.
func (s *Server) status(ru *run, detail bool) RunStatus {
	s.mu.Lock()
	st := RunStatus{
		ID: ru.id, State: ru.state, Flow: ru.flowName, Instance: ru.instance,
		Submitted: ru.submitted, Error: ru.err,
		InstanceHash: ru.instHash, ResultHash: ru.resultHash,
		Attempts: ru.attempts, Recovered: ru.recovered,
	}
	if !ru.started.IsZero() {
		t := ru.started
		st.Started = &t
		end := ru.finished
		if end.IsZero() {
			end = time.Now() //oc:clock-ok live elapsed time shown in the ops list
		}
		st.DurationMS = end.Sub(t).Milliseconds()
	}
	if !ru.finished.IsZero() {
		t := ru.finished
		st.Finished = &t
	}
	st.Result = ru.resRec
	if ru.broker != nil {
		st.StreamEvents, st.StreamDropped, _ = ru.broker.Stats()
	}
	s.mu.Unlock()
	if detail {
		sum := span.Summarise(ru.builder.Snapshot())
		st.Spans = &sum
	}
	return st
}

// handleList serves GET /runs. The order is stable and documented:
// newest submission first (descending run id), recovered history
// included in its original submission order. ?state= keeps only runs
// in the named state (pending/running/done/partial/failed/canceled).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("state")
	if filter != "" && filter != StatePending && filter != StateRunning && !terminalState(filter) {
		http.Error(w, fmt.Sprintf("unknown state %q", filter), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	out := make([]RunStatus, 0, len(ids))
	// Newest first.
	for i := len(ids) - 1; i >= 0; i-- {
		s.mu.Lock()
		ru, ok := s.runs[ids[i]]
		s.mu.Unlock()
		if !ok {
			continue
		}
		st := s.status(ru, false)
		if filter != "" && st.State != filter {
			continue
		}
		out = append(out, st)
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *run {
	id := r.PathValue("id")
	s.mu.Lock()
	ru := s.runs[id]
	s.mu.Unlock()
	if ru == nil {
		http.Error(w, fmt.Sprintf("unknown run %q", id), http.StatusNotFound)
	}
	return ru
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	st := s.status(ru, true)
	st.Summary = ru.stats.Summary()
	if truthy(r.URL.Query().Get("spans")) {
		st.SpanTree = ru.builder.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	s.mu.Lock()
	state := ru.state
	s.mu.Unlock()
	if state != StatePending && state != StateRunning {
		http.Error(w, fmt.Sprintf("run %s already %s", ru.id, state), http.StatusConflict)
		return
	}
	ru.cancel()
	if state == StatePending {
		// Finalise a queued run immediately rather than waiting for its
		// goroutine to notice the cancel: the caller sees canceled in
		// this response and the journal gets the record now. The
		// terminal-state guard in transition makes this race-safe
		// against the goroutine's own cancel path.
		s.transition(ru, StateCanceled, nil, errors.New("canceled while pending"))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, s.status(ru, false))
}

func (s *Server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	s.mu.Lock()
	res, state := ru.res, ru.state
	s.mu.Unlock()
	if res == nil || res.BGrid == nil {
		code := http.StatusNotFound
		msg := fmt.Sprintf("run %s has no level B heatmap (state %s)", ru.id, state)
		if state == StatePending || state == StateRunning {
			code = http.StatusConflict
			msg = fmt.Sprintf("run %s still %s", ru.id, state)
		}
		http.Error(w, msg, code)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	// The renderer fails only when the client stops reading; the status
	// line is sent by then, so there is nothing left to report.
	_ = render.HeatmapSVG(w, congest.Tile(res.BGrid, ru.heatWin))
}

// Wait blocks until the identified run finishes (test and CLI
// convenience); false if the run is unknown.
func (s *Server) Wait(id string) bool {
	s.mu.Lock()
	ru := s.runs[id]
	s.mu.Unlock()
	if ru == nil {
		return false
	}
	<-ru.done
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
