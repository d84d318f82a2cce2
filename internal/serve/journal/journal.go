// Package journal is ocserved's durability layer: an append-only
// write-ahead log of run lifecycle transitions, so a restarted server
// reconstructs finished results and requeues the runs that were
// pending or in flight when the process died.
//
// # File format
//
// One record per line (NDJSON), each line framed as
//
//	<len> <crc32> <payload>\n
//
// where len is the payload byte length in decimal, crc32 is the
// IEEE CRC-32 of the payload in zero-padded hex, and payload is the
// JSON encoding of a Record (which json.Marshal guarantees contains
// no raw newline). The framing makes every record independently
// verifiable: replay re-checks length and checksum before trusting a
// single byte of JSON.
//
// # Crash tolerance
//
// The file is append-only, so exactly one record can ever be damaged:
// the last one, torn by a crash mid-write. Replay tolerates a torn
// final record — it is dropped, reported via Replay.Torn, and Open
// truncates the file back to the last intact record so the next
// append restores the framing invariant. Damage anywhere *before* the
// final record cannot be produced by a crash; it means the file was
// edited or the disk lies, and replay refuses it with ErrCorrupt
// rather than guessing.
//
// # Durability policy
//
// Options.Sync picks the fsync policy: SyncAlways (the default)
// fsyncs after every append, so an accepted run survives even an
// immediate power cut at the price of one fsync of write latency per
// lifecycle transition; SyncNever leaves flushing to the OS page
// cache — cheap, and still safe against process crashes (kill -9),
// but a run accepted just before a machine-level failure may be lost.
//
// All I/O failures surface as wrapped typed errors (errors.Is sees
// the underlying cause), never as panics; a failed append is rolled
// back by truncating to the previous record boundary so the journal
// stays replayable even on a flaky disk.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Record kinds, one per run lifecycle transition.
const (
	// KindAccepted carries the full canonical instance payload and its
	// hash: everything needed to re-execute the run from scratch.
	KindAccepted = "accepted"
	// KindStarted marks a run entering execution, once per process
	// life, with Attempt 1; replay counts the records, so a requeued
	// run's lives are visible in the log.
	KindStarted = "started"
	// KindFinished is terminal: State says how (done, partial, failed,
	// canceled), Result/ResultHash record what was produced.
	KindFinished = "finished"
	// KindInterrupted is the drain checkpoint: the run was still in
	// flight at the drain deadline and was canceled with the intent
	// that the next start requeues it.
	KindInterrupted = "interrupted"
	// KindEvicted marks a finished run dropped by the KeepRuns cap;
	// replay must not resurrect it.
	KindEvicted = "evicted"
)

// Record is one journal entry. Kind selects which optional fields are
// meaningful; unknown kinds are preserved by replay but ignored by the
// state machine, so old binaries can skip records written by newer
// ones.
type Record struct {
	Kind string `json:"kind"`
	Run  string `json:"run"`
	// Time is the server's wall-clock stamp for the transition.
	Time time.Time `json:"time"`

	// Accepted fields.
	Flow         string          `json:"flow,omitempty"`
	Name         string          `json:"name,omitempty"` // instance display name
	Instance     json.RawMessage `json:"instance,omitempty"`
	InstanceHash string          `json:"instance_hash,omitempty"`
	Opts         *RunOpts        `json:"opts,omitempty"`

	// Started fields.
	Attempt int `json:"attempt,omitempty"`

	// Finished fields.
	State      string        `json:"state,omitempty"`
	Error      string        `json:"error,omitempty"`
	Result     *ResultRecord `json:"result,omitempty"`
	ResultHash string        `json:"result_hash,omitempty"`
	Attempts   int           `json:"attempts,omitempty"`
}

// RunOpts are the submission knobs a requeued run must be re-executed
// with to reproduce the original result.
type RunOpts struct {
	DeadlineMS  int64 `json:"deadline_ms,omitempty"`
	NetBudget   int64 `json:"net_budget,omitempty"`
	TotalBudget int64 `json:"total_budget,omitempty"`
	Partial     bool  `json:"partial,omitempty"`
	HeatWin     int   `json:"heat_win,omitempty"`
}

// ResultRecord is the persisted summary of a finished run — the same
// shape the run detail endpoint serves, minus the in-memory artifacts
// (heatmap, spans) that are not reconstructed after a restart.
type ResultRecord struct {
	Flow       string `json:"flow"`
	Area       int64  `json:"area"`
	Width      int    `json:"width"`
	Height     int    `json:"height"`
	WireLength int    `json:"wire_length"`
	Vias       int    `json:"vias"`
	Degraded   int    `json:"degraded,omitempty"`
	LevelBNets int    `json:"level_b_nets,omitempty"`
	Expanded   int    `json:"expanded,omitempty"`
}

// Typed failure classes. Append/replay errors wrap these (or the
// underlying I/O fault) so callers classify with errors.Is.
var (
	// ErrCorrupt: a record before the final one failed its frame check.
	// Append-only writes cannot produce this; the file was tampered
	// with or the storage is lying, so replay refuses to guess.
	ErrCorrupt = errors.New("journal corrupt")
	// ErrDamaged: an append failed and the rollback truncate also
	// failed, so the on-disk tail is unknown. The handle refuses
	// further appends rather than bury good records behind garbage.
	ErrDamaged = errors.New("journal damaged")
	// ErrClosed: append after Close.
	ErrClosed = errors.New("journal closed")
)

// SyncPolicy picks when the journal fsyncs. See the package comment
// for the trade-off.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append (default): survives power
	// loss, costs one fsync per lifecycle transition.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: survives process crashes,
	// may lose the most recent records on machine failure.
	SyncNever
)

// ParseSync maps the -journal-fsync flag vocabulary to a policy.
func ParseSync(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always or never)", s)
}

// File is the journal's append handle. *os.File satisfies it; tests
// inject fault wrappers (short writes, fsync errors) through
// Options.OpenFile.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Options tunes Open.
type Options struct {
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// OpenFile opens the append handle; nil means os.OpenFile with
	// O_WRONLY|O_CREATE|O_APPEND. Replay always reads the real file.
	OpenFile func(path string) (File, error)
}

// Journal is an open append handle. Safe for concurrent Append.
type Journal struct {
	path string
	opts Options

	mu      sync.Mutex
	f       File
	off     int64 // end offset of the last fully appended record
	damaged bool
	closed  bool
}

func defaultOpen(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Open replays the journal at path (missing file = empty journal),
// truncates a torn tail, and returns an append handle positioned
// after the last intact record plus the folded replay state. A
// mid-file corruption aborts with ErrCorrupt — appending over
// unreadable history would only bury it.
func Open(path string, opts Options) (*Journal, *Replay, error) {
	if opts.OpenFile == nil {
		opts.OpenFile = defaultOpen
	}
	rep := &Replay{}
	var good int64
	if r, err := os.Open(path); err == nil {
		var records []Record
		var derr error
		records, good, rep.Torn, derr = DecodeAll(r)
		r.Close()
		if derr != nil {
			return nil, nil, derr
		}
		rep.fold(records)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	f, err := opts.OpenFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open append %s: %w", path, err)
	}
	// Drop the torn tail (and anything a previous flaky-disk session
	// left beyond the last intact record) so appends re-establish the
	// one-record-per-line invariant. O_APPEND writes land at the new
	// end.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
	}
	return &Journal{path: path, opts: opts, f: f, off: good}, rep, nil
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// frame renders one record in the on-disk framing.
func frame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal %s record: %w", rec.Kind, err)
	}
	var buf bytes.Buffer
	buf.Grow(len(payload) + 24)
	fmt.Fprintf(&buf, "%d %08x ", len(payload), crc32.ChecksumIEEE(payload))
	buf.Write(payload)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Append writes one record, fsyncing per the policy. On a write
// fault it rolls the file back to the previous record boundary so the
// journal stays replayable; if even the rollback fails the handle is
// marked damaged and refuses further appends. The returned error
// wraps the underlying I/O fault.
func (j *Journal) Append(rec *Record) error {
	line, err := frame(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.closed:
		return fmt.Errorf("journal: append %s: %w", rec.Kind, ErrClosed)
	case j.damaged:
		return fmt.Errorf("journal: append %s: %w", rec.Kind, ErrDamaged)
	}
	n, werr := j.f.Write(line)
	if werr == nil && n < len(line) {
		werr = io.ErrShortWrite
	}
	if werr != nil {
		// Roll back to the last record boundary; a partial frame left
		// in place would read as mid-file corruption after the next
		// append.
		if terr := j.f.Truncate(j.off); terr != nil {
			j.damaged = true
			return fmt.Errorf("journal: append %s: %w (rollback failed: %v: %w)",
				rec.Kind, werr, terr, ErrDamaged)
		}
		return fmt.Errorf("journal: append %s: %w", rec.Kind, werr)
	}
	j.off += int64(len(line))
	if j.opts.Sync == SyncAlways {
		if serr := j.f.Sync(); serr != nil {
			// The record is written but not durably so; report it and
			// keep the handle usable — the bytes on file are intact.
			return fmt.Errorf("journal: fsync after %s: %w", rec.Kind, serr)
		}
	}
	return nil
}

// Sync forces an fsync regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

// Close syncs (under SyncNever this is the one durability point) and
// closes the append handle. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return fmt.Errorf("journal: close sync: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
}

// DecodeAll reads framed records until EOF. good is the byte offset
// just past the last intact record; torn reports a damaged *final*
// record (tolerated and excluded). Damage before the final record
// returns ErrCorrupt with the failing record's index and reason.
func DecodeAll(r io.Reader) (records []Record, good int64, torn bool, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) == 0 && rerr != nil {
			if rerr == io.EOF {
				return records, good, torn, nil
			}
			return records, good, torn, fmt.Errorf("journal: read: %w", rerr)
		}
		rec, ferr := decodeLine(line, rerr == nil)
		if ferr != nil {
			// Only the final record may legitimately be damaged (a crash
			// tore it mid-write). If any byte follows this line, the
			// damage is mid-file: refuse.
			if _, peekErr := br.ReadByte(); peekErr == io.EOF && rerr == nil || rerr == io.EOF {
				return records, good, true, nil
			}
			return records, good, torn, fmt.Errorf("journal: record %d: %v: %w",
				len(records), ferr, ErrCorrupt)
		}
		records = append(records, *rec)
		good += int64(len(line))
		if rerr == io.EOF {
			return records, good, torn, nil
		}
		if rerr != nil {
			return records, good, torn, fmt.Errorf("journal: read: %w", rerr)
		}
	}
}

// decodeLine verifies one framed line. complete reports whether the
// line ended in '\n' (an unterminated final line is always torn).
func decodeLine(line []byte, complete bool) (*Record, error) {
	if !complete {
		return nil, errors.New("unterminated line")
	}
	body := line[:len(line)-1] // strip '\n'
	sp1 := bytes.IndexByte(body, ' ')
	if sp1 < 0 {
		return nil, errors.New("missing length field")
	}
	sp2 := bytes.IndexByte(body[sp1+1:], ' ')
	if sp2 < 0 {
		return nil, errors.New("missing crc field")
	}
	sp2 += sp1 + 1
	size, err := strconv.Atoi(string(body[:sp1]))
	if err != nil {
		return nil, fmt.Errorf("bad length field: %v", err)
	}
	sum, err := strconv.ParseUint(string(body[sp1+1:sp2]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad crc field: %v", err)
	}
	payload := body[sp2+1:]
	if len(payload) != size {
		return nil, fmt.Errorf("length mismatch: frame says %d, have %d", size, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); uint32(sum) != got {
		return nil, fmt.Errorf("crc mismatch: frame says %08x, computed %08x", sum, got)
	}
	rec := &Record{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, fmt.Errorf("bad payload json: %v", err)
	}
	return rec, nil
}
