// Run lifecycle durability: the journal glue, restart recovery, and
// the graceful drain ocserved drives on SIGTERM.
//
// Recovery contract: a run acknowledged with 202 is never lost. The
// journal's accepted record carries the canonical instance payload and
// every submission knob, so Recover can re-execute an interrupted run
// byte-identically — the router's determinism (equal canonical input,
// equal result hash) is what makes "re-execute" an acceptable recovery
// strategy instead of a lossy one.
//
// Drain contract: StartDrain stops admissions (healthz and POST /runs
// go 503), DrainWait gives in-flight runs a bounded window to finish,
// and Checkpoint cancels whatever remains with requeue intent — those
// runs are journaled as interrupted and re-executed by the next
// process's Recover.

package serve

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"overcell/internal/gen"
	"overcell/internal/obs/metrics"
	"overcell/internal/obs/span"
	"overcell/internal/serve/journal"
)

// journalAppend appends one lifecycle record, nil-safely. A failed
// append degrades durability, never availability: the run proceeds and
// the failure is counted in ocroute_journal_write_errors_total.
func (s *Server) journalAppend(rec *journal.Record) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.journalErrs.Inc()
	}
}

// Recover rebuilds the run store from a journal replay: finished runs
// reappear with their persisted summaries and result hashes, and runs
// the previous process accepted but never finished (crash, or a drain
// checkpoint) are requeued for execution. Call it once, after New and
// before serving traffic. It returns the counts of finished,
// requeued and unrecoverable runs, mirrored in
// ocroute_runs_recovered_total{outcome}.
func (s *Server) Recover(rep *journal.Replay) (finished, requeued, failed int) {
	if rep == nil {
		return 0, 0, 0
	}
	for _, st := range rep.Runs {
		if st.Evicted {
			// Evicted runs were deliberately dropped by the KeepRuns cap
			// (or are orphan transitions with no accepted payload);
			// resurrecting them would undo the cap on every restart.
			continue
		}
		s.noteID(st.ID)
		switch {
		case st.State != "":
			s.recoverFinished(st)
			finished++
		default:
			if s.requeue(st) {
				requeued++
			} else {
				failed++
			}
		}
	}
	// The replayed history may hold more finished runs than KeepRuns;
	// apply the cap now (oldest first, as live eviction would) and
	// journal the drops so the next replay skips them too.
	s.mu.Lock()
	evicted := s.evictLocked()
	s.mu.Unlock()
	for _, id := range evicted {
		s.journalAppend(&journal.Record{
			Kind: journal.KindEvicted, Run: id,
			Time: time.Now(), //oc:clock-ok run lifecycle timestamps are ops metadata, not routing inputs
		})
	}
	return finished, requeued, failed
}

// noteID advances the id allocator past a replayed run id so new
// submissions never collide with journaled history.
func (s *Server) noteID(id string) {
	num, ok := strings.CutPrefix(id, "run-")
	if !ok {
		return
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}

// recoverFinished reconstructs a terminal run from its journal state.
// The in-memory artifacts a live run carries (level B grid, span tree,
// event summary, congestion series) died with the old process; the
// result summary, hashes and timings survive.
func (s *Server) recoverFinished(st *journal.RunState) {
	done := make(chan struct{})
	close(done)
	ru := &run{
		id: st.ID, flowName: st.Flow, instance: st.Name,
		state: st.State, submitted: st.Accepted,
		started: st.Started, finished: st.Finished, err: st.Error,
		instHash: st.InstanceHash, resultHash: st.ResultHash,
		attempts: st.Attempts, recovered: true,
		cancel: func() {}, done: done,
		builder: span.NewBuilder(st.ID, nil),
		stats:   metrics.NewTracer(nil),
	}
	if r := st.Result; r != nil {
		ru.resRec = &RunResult{
			Flow: r.Flow, Area: r.Area, Width: r.Width, Height: r.Height,
			WireLength: r.WireLength, Vias: r.Vias, Degraded: r.Degraded,
			LevelBNets: r.LevelBNets, Expanded: r.Expanded,
		}
	}
	s.mu.Lock()
	s.runs[ru.id] = ru
	s.order = append(s.order, ru.id)
	s.mu.Unlock()
	s.recovered["finished"].Inc()
}

// requeue re-submits an interrupted run from its journaled payload.
// False means the record could not be turned back into an executable
// run (payload unparseable, flow unknown to this binary); such a run
// is finalised as failed — visibly, not silently dropped.
func (s *Server) requeue(st *journal.RunState) bool {
	ru := &run{
		id: st.ID, flowName: st.Flow, instance: st.Name,
		state: StatePending, submitted: st.Accepted,
		instHash: st.InstanceHash, recovered: true,
		heatWin: st.Opts.HeatWin,
		done:    make(chan struct{}),
		builder: span.NewBuilder(st.ID, nil),
		stats:   metrics.NewTracer(nil),
	}
	inst, err := gen.ReadJSON(bytes.NewReader(st.Instance))
	fn, known := s.flows[st.Flow]
	if err == nil && !known {
		err = fmt.Errorf("journaled flow %q unknown to this binary", st.Flow)
	}
	if err != nil {
		ru.cancel = func() {}
		s.mu.Lock()
		s.runs[ru.id] = ru
		s.order = append(s.order, ru.id)
		s.mu.Unlock()
		s.transition(ru, StateFailed, nil, fmt.Errorf("recovery: %w", err))
		close(ru.done)
		s.recovered["failed"].Inc()
		s.log.Warn("journaled run unrecoverable",
			"run_id", ru.id, "flow", st.Flow, "error", err.Error())
		return false
	}
	ctx, cancel := context.WithCancel(s.cfg.BaseCtx)
	ru.cancel = cancel
	s.mu.Lock()
	s.runs[ru.id] = ru
	s.order = append(s.order, ru.id)
	// Requeued runs are live again: give them the same event broker and
	// congestion series a fresh submission would get, so SSE clients can
	// watch the re-execution from its start.
	s.attachTelemetry(ru)
	s.mu.Unlock()
	req := jobRequest{
		Flow: st.Flow, DeadlineMS: st.Opts.DeadlineMS,
		NetBudget: st.Opts.NetBudget, TotalBudget: st.Opts.TotalBudget,
		Partial: st.Opts.Partial, HeatWin: st.Opts.HeatWin,
	}
	s.recovered["requeued"].Inc()
	s.log.Info("run requeued from journal",
		"run_id", ru.id, "flow", st.Flow, "instance", st.Name,
		"instance_hash", st.InstanceHash)
	go s.execute(ctx, ru, fn, inst, req)
	return true
}

// StartDrain flips the server into draining mode: /healthz reports 503
// so load balancers stop routing here, POST /runs rejects with 503 and
// Retry-After, and the ocserved_draining gauge goes to 1. In-flight
// runs keep executing; see DrainWait and Checkpoint for the rest of
// the shutdown sequence. Idempotent.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.drainG.Set(1)
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the ids of runs not yet in a terminal state
// (pending or running), oldest first.
func (s *Server) InFlight() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for _, id := range s.order {
		if !terminalState(s.runs[id].state) {
			ids = append(ids, id)
		}
	}
	return ids
}

// DrainWait blocks until every in-flight run reaches a terminal state
// or ctx expires, returning the ids still in flight at the deadline
// (nil on a clean drain). Call StartDrain first so no new runs are
// admitted behind the wait.
func (s *Server) DrainWait(ctx context.Context) []string {
	for {
		s.mu.Lock()
		var waits []*run
		for _, id := range s.order {
			ru := s.runs[id]
			if !terminalState(ru.state) {
				waits = append(waits, ru)
			}
		}
		s.mu.Unlock()
		if len(waits) == 0 {
			return nil
		}
		for _, ru := range waits {
			select {
			case <-ru.done:
			case <-ctx.Done():
				return s.InFlight()
			}
		}
	}
}

// Checkpoint cancels every run still in flight with requeue intent:
// each is journaled as interrupted rather than terminally canceled, so
// the next process's Recover re-executes it. Blocks until the canceled
// runs finalise (cancellation propagates through the budget layer at
// expansion granularity, so this is prompt) and returns their ids.
func (s *Server) Checkpoint() []string {
	s.mu.Lock()
	var victims []*run
	for _, id := range s.order {
		ru := s.runs[id]
		if !terminalState(ru.state) {
			ru.requeue = true
			victims = append(victims, ru)
		}
	}
	s.mu.Unlock()
	ids := make([]string, 0, len(victims))
	for _, ru := range victims {
		ids = append(ids, ru.id)
		ru.cancel()
	}
	for _, ru := range victims {
		<-ru.done
	}
	return ids
}
