package journal

import (
	"encoding/json"
	"time"
)

// RunState is the folded outcome of one run's journal records: what
// the run looked like when the process last wrote about it.
type RunState struct {
	ID           string
	Flow         string
	Name         string // instance display name
	Instance     json.RawMessage
	InstanceHash string
	Opts         RunOpts
	Accepted     time.Time

	// Attempts counts started records (one per process life); Started
	// is the first one's timestamp.
	Attempts int
	Started  time.Time
	// State is the terminal state from the finished record, or "" for
	// a run that never finished (crash or drain interruption).
	State      string
	Error      string
	Result     *ResultRecord
	ResultHash string
	Finished   time.Time

	// Interrupted: the run was checkpoint-canceled by a drain with
	// requeue intent.
	Interrupted bool
	// Evicted: the finished run was dropped by the KeepRuns cap and
	// must not be resurrected.
	Evicted bool
}

// NeedsRequeue reports whether a restarted server must re-execute the
// run: it was accepted but never reached a terminal state (the
// process crashed first, or a drain checkpoint-canceled it).
func (st *RunState) NeedsRequeue() bool {
	return !st.Evicted && st.State == ""
}

// Replay is the folded journal: per-run final states in first-accept
// order, plus what the decoder observed about the file itself.
type Replay struct {
	// Records is the count of intact records decoded.
	Records int
	// Torn reports that the final record was damaged (crash mid-write)
	// and dropped; Open truncates it away.
	Torn bool
	// Runs holds one state per run id, in the order first accepted.
	Runs []*RunState
}

// fold applies records in order to the replay state machine. Records
// for a run id never seen in an accepted record create a placeholder
// state (so a truncated-away accepted record does not crash replay);
// such a state has no instance payload and cannot be requeued — it is
// reported but carries Evicted=true to keep it out of recovery.
func (rep *Replay) fold(records []Record) {
	byID := make(map[string]*RunState, len(records))
	get := func(id string) *RunState {
		st, ok := byID[id]
		if !ok {
			// Orphan transition: its accepted record is missing (hand-
			// truncated journal). Quarantine rather than requeue a run
			// whose payload we do not have.
			st = &RunState{ID: id, Evicted: true}
			byID[id] = st
			rep.Runs = append(rep.Runs, st)
		}
		return st
	}
	for i := range records {
		rec := &records[i]
		rep.Records++
		switch rec.Kind {
		case KindAccepted:
			st, ok := byID[rec.Run]
			if !ok {
				st = &RunState{ID: rec.Run}
				byID[rec.Run] = st
				rep.Runs = append(rep.Runs, st)
			}
			st.Flow = rec.Flow
			st.Name = rec.Name
			st.Instance = rec.Instance
			st.InstanceHash = rec.InstanceHash
			st.Accepted = rec.Time
			st.Evicted = false
			if rec.Opts != nil {
				st.Opts = *rec.Opts
			}
		case KindStarted:
			st := get(rec.Run)
			if st.Started.IsZero() {
				st.Started = rec.Time
			}
			if rec.Attempt > st.Attempts {
				st.Attempts = rec.Attempt
			} else {
				st.Attempts++
			}
			// A new attempt supersedes any earlier terminal state (a
			// requeued run's second life).
			st.State, st.Error, st.Result, st.ResultHash = "", "", nil, ""
			st.Interrupted = false
		case KindFinished:
			st := get(rec.Run)
			st.State = rec.State
			st.Error = rec.Error
			st.Result = rec.Result
			st.ResultHash = rec.ResultHash
			st.Finished = rec.Time
			if rec.Attempts > st.Attempts {
				st.Attempts = rec.Attempts
			}
			st.Interrupted = false
		case KindInterrupted:
			st := get(rec.Run)
			st.Interrupted = true
			st.State, st.Error, st.Result, st.ResultHash = "", "", nil, ""
		case KindEvicted:
			get(rec.Run).Evicted = true
		default:
			// Forward compatibility: skip kinds this binary predates.
		}
	}
}

// Fold builds a Replay from already-decoded records (tests and tools;
// Open does this internally).
func Fold(records []Record) *Replay {
	rep := &Replay{}
	rep.fold(records)
	return rep
}
