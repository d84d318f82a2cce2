package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.ndjson")
}

func mustAppend(t *testing.T, j *Journal, recs ...*Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %s: %v", r.Kind, err)
		}
	}
}

func accepted(id string) *Record {
	return &Record{
		Kind: KindAccepted, Run: id, Flow: "proposed", Name: "tiny",
		Instance:     json.RawMessage(`{"name":"tiny"}`),
		InstanceHash: "abc123",
		Opts:         &RunOpts{HeatWin: 2, Partial: true},
		Time:         time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
	}
}

func TestRoundTrip(t *testing.T) {
	path := testPath(t)
	j, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || rep.Torn {
		t.Fatalf("fresh journal replay = %+v", rep)
	}
	mustAppend(t, j,
		accepted("run-1"),
		&Record{Kind: KindStarted, Run: "run-1", Attempt: 1},
		&Record{Kind: KindFinished, Run: "run-1", State: "done", Attempts: 1,
			Result:     &ResultRecord{Flow: "proposed", Area: 42, WireLength: 7},
			ResultHash: "deadbeef"},
		accepted("run-2"),
		&Record{Kind: KindStarted, Run: "run-2", Attempt: 1},
	)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Records != 5 || rep2.Torn {
		t.Fatalf("replay = records %d torn %v, want 5 records clean", rep2.Records, rep2.Torn)
	}
	if len(rep2.Runs) != 2 {
		t.Fatalf("replay runs = %d, want 2", len(rep2.Runs))
	}
	r1, r2 := rep2.Runs[0], rep2.Runs[1]
	if r1.ID != "run-1" || r1.State != "done" || r1.NeedsRequeue() {
		t.Errorf("run-1 state = %+v, want finished done", r1)
	}
	if r1.Result == nil || r1.Result.Area != 42 || r1.ResultHash != "deadbeef" {
		t.Errorf("run-1 result not reconstructed: %+v", r1.Result)
	}
	if r1.InstanceHash != "abc123" || string(r1.Instance) != `{"name":"tiny"}` {
		t.Errorf("run-1 payload = hash %q inst %s", r1.InstanceHash, r1.Instance)
	}
	if r2.ID != "run-2" || !r2.NeedsRequeue() || r2.Attempts != 1 {
		t.Errorf("run-2 = %+v, want in-flight requeue with 1 attempt", r2)
	}
}

// TestTornTail truncates the file mid-final-record: replay must keep
// every intact record, report the tear, and Open must leave the file
// appendable (the torn bytes truncated away).
func TestTornTail(t *testing.T) {
	path := testPath(t)
	j, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, accepted("run-1"), &Record{Kind: KindStarted, Run: "run-1", Attempt: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, bytesAfterLastNewline(raw) - 3} {
		if err := os.WriteFile(path, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rep, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if !rep.Torn || rep.Records != 1 {
			t.Fatalf("cut %d: replay = records %d torn %v, want 1 record torn", cut, rep.Records, rep.Torn)
		}
		// The journal must heal: append again, replay clean.
		mustAppend(t, j2, &Record{Kind: KindStarted, Run: "run-1", Attempt: 1})
		j2.Close()
		_, rep2, err := Open(path, Options{})
		if err != nil || rep2.Torn || rep2.Records != 2 {
			t.Fatalf("cut %d: healed replay = %+v, %v", cut, rep2, err)
		}
		// Restore for the next cut size.
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func bytesAfterLastNewline(b []byte) int {
	for i := len(b) - 2; i >= 0; i-- { // -2: skip the trailing '\n'
		if b[i] == '\n' {
			return len(b) - 1 - i
		}
	}
	return len(b)
}

// TestMidFileCorruption flips a byte in the first record of a
// multi-record journal: replay must refuse with ErrCorrupt instead of
// silently dropping history.
func TestMidFileCorruption(t *testing.T) {
	path := testPath(t)
	j, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, accepted("run-1"), &Record{Kind: KindStarted, Run: "run-1", Attempt: 1})
	j.Close()
	raw, _ := os.ReadFile(path)
	raw[len(raw)/4] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt mid-file open err = %v, want ErrCorrupt", err)
	}
}

// TestRequeueSecondLife: a run interrupted by drain, then re-started
// and finished after a restart, folds to its final state — started
// records supersede the interruption.
func TestRequeueSecondLife(t *testing.T) {
	rep := Fold([]Record{
		*accepted("run-1"),
		{Kind: KindStarted, Run: "run-1", Attempt: 1},
		{Kind: KindInterrupted, Run: "run-1"},
		{Kind: KindStarted, Run: "run-1", Attempt: 2},
		{Kind: KindFinished, Run: "run-1", State: "done", Attempts: 2, ResultHash: "h"},
	})
	st := rep.Runs[0]
	if st.NeedsRequeue() || st.State != "done" || st.Attempts != 2 || st.Interrupted {
		t.Fatalf("second life fold = %+v", st)
	}
	// The interrupted-but-not-yet-restarted shape requeues.
	rep2 := Fold([]Record{
		*accepted("run-1"),
		{Kind: KindStarted, Run: "run-1", Attempt: 1},
		{Kind: KindInterrupted, Run: "run-1"},
	})
	if st := rep2.Runs[0]; !st.NeedsRequeue() || !st.Interrupted {
		t.Fatalf("interrupted fold = %+v, want requeue", st)
	}
}

// TestEvictedNotRequeued: evicted runs never resurface, and orphan
// transitions (accepted record truncated away) are quarantined.
func TestEvictedNotRequeued(t *testing.T) {
	rep := Fold([]Record{
		*accepted("run-1"),
		{Kind: KindFinished, Run: "run-1", State: "done"},
		{Kind: KindEvicted, Run: "run-1"},
		{Kind: KindStarted, Run: "run-9", Attempt: 1}, // orphan
	})
	if st := rep.Runs[0]; !st.Evicted || st.NeedsRequeue() {
		t.Fatalf("evicted fold = %+v", st)
	}
	if st := rep.Runs[1]; st.ID != "run-9" || st.NeedsRequeue() {
		t.Fatalf("orphan fold = %+v, must not requeue without a payload", st)
	}
}

func TestUnknownKindSkipped(t *testing.T) {
	rep := Fold([]Record{
		*accepted("run-1"),
		{Kind: "future-kind", Run: "run-1"},
	})
	if len(rep.Runs) != 1 || rep.Runs[0].NeedsRequeue() != true {
		t.Fatalf("unknown-kind fold = %+v", rep.Runs)
	}
	if rep.Records != 2 {
		t.Fatalf("records = %d, want 2 (unknown kinds still counted)", rep.Records)
	}
}

func TestParseSync(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "never": SyncNever} {
		got, err := ParseSync(in)
		if err != nil || got != want {
			t.Errorf("ParseSync(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSync("sometimes"); err == nil || !strings.Contains(err.Error(), "sometimes") {
		t.Errorf("ParseSync(sometimes) err = %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	j, _, err := Open(testPath(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(accepted("run-1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}
