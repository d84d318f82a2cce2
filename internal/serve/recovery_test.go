package serve

// Crash-safety tests: journal-backed recovery, drain lifecycle, retry
// supervision, and eviction-vs-replay interactions. The crash here is
// in-process — a journaled server is abandoned mid-run and a second
// server replays its journal — which the race detector can see through
// (the CI chaos-smoke job does the real kill -9 against the binary).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/robust"
	"overcell/internal/serve/journal"
)

// openJournal opens a fresh or existing journal under SyncNever (the
// tests simulate process crashes, not power loss).
func openJournal(t *testing.T, wal string) (*journal.Journal, *journal.Replay) {
	t.Helper()
	j, rep, err := journal.Open(wal, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return j, rep
}

func getStatus(t *testing.T, url string) RunStatus {
	t.Helper()
	code, body := getBody(t, url)
	if code != 200 {
		t.Fatalf("GET %s = %d %.200s", url, code, body)
	}
	var st RunStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCrashRecoveryEquivalence is the byte-determinism contract of
// crash recovery: a run interrupted mid-route and requeued from the
// journal by a second server produces a result hash identical to an
// uninterrupted run of the same payload.
func TestCrashRecoveryEquivalence(t *testing.T) {
	inst := testInstance(t)

	// Reference: the same payload routed without interruption.
	ref := New(Config{})
	tsRef := httptest.NewServer(ref.Handler())
	_, refSt, raw := postRun(t, tsRef.URL, "?flow=proposed&wait=1", inst)
	tsRef.Close()
	if refSt.State != StateDone || refSt.ResultHash == "" || refSt.InstanceHash == "" {
		t.Fatalf("reference run = %+v (%s)", refSt, raw)
	}

	// Life 1: a journaled server whose "proposed" flow never returns —
	// the run is accepted and started, then the process "dies" (the
	// server is abandoned; only its journal file survives).
	wal := filepath.Join(t.TempDir(), "wal.ndjson")
	j1, _ := openJournal(t, wal)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	s1 := New(Config{BaseCtx: ctx1, Journal: j1})
	routing := make(chan struct{}, 1)
	s1.flows["proposed"] = func(in *gen.Instance, opt flow.Options) (*flow.Result, error) {
		routing <- struct{}{}
		<-opt.Ctx.Done()
		return nil, fmt.Errorf("interrupted mid-route: %w", robust.ErrCanceled)
	}
	ts1 := httptest.NewServer(s1.Handler())
	_, st1, _ := postRun(t, ts1.URL, "?flow=proposed", inst)
	select {
	case <-routing:
	case <-time.After(5 * time.Second):
		t.Fatal("journaled run never started")
	}
	j1.Close() // the "crash": journal fd gone, server state abandoned
	ts1.Close()

	// Life 2: replay into a fresh server with the real flows. The run
	// must requeue, execute, and reproduce the reference hash.
	j2, rep := openJournal(t, wal)
	defer j2.Close()
	if rep.Torn {
		t.Fatal("clean close left a torn journal")
	}
	s2 := New(Config{Journal: j2})
	finished, requeued, failed := s2.Recover(rep)
	if finished != 0 || requeued != 1 || failed != 0 {
		t.Fatalf("Recover = %d finished, %d requeued, %d failed; want 0/1/0",
			finished, requeued, failed)
	}
	if !s2.Wait(st1.ID) {
		t.Fatalf("requeued run %s unknown to recovered server", st1.ID)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st2 := getStatus(t, ts2.URL+"/runs/"+st1.ID)
	if st2.State != StateDone || !st2.Recovered {
		t.Fatalf("recovered run = state %s recovered %v (err %q)", st2.State, st2.Recovered, st2.Error)
	}
	if st2.InstanceHash != refSt.InstanceHash {
		t.Fatalf("instance hash drifted through the journal: %s vs %s",
			st2.InstanceHash, refSt.InstanceHash)
	}
	if st2.ResultHash != refSt.ResultHash {
		t.Fatalf("crash recovery broke byte determinism: result hash %s, reference %s",
			st2.ResultHash, refSt.ResultHash)
	}
	_, mbody := getBody(t, ts2.URL+"/metrics")
	if !strings.Contains(mbody, `ocroute_runs_recovered_total{outcome="requeued"} 1`) {
		t.Error("metrics missing requeued recovery count")
	}
}

// TestRecoverLegacyWorkersOpt replays a journal written by an older
// server, whose accepted records carried a "workers" option that no
// longer exists: the run must requeue and finish with the same result
// hash as an uninterrupted run of the same payload.
func TestRecoverLegacyWorkersOpt(t *testing.T) {
	inst := testInstance(t)
	ref := New(Config{})
	tsRef := httptest.NewServer(ref.Handler())
	_, refSt, raw := postRun(t, tsRef.URL, "?flow=proposed&wait=1", inst)
	tsRef.Close()
	if refSt.State != StateDone || refSt.ResultHash == "" {
		t.Fatalf("reference run = %+v (%s)", refSt, raw)
	}

	gi, err := gen.ReadJSON(bytes.NewReader(inst))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := gi.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := json.Compact(&payload, canon); err != nil {
		t.Fatal(err)
	}
	// An accepted-then-started run, framed as "<len> <crc32> <json>".
	var wal bytes.Buffer
	for _, rec := range []string{
		fmt.Sprintf(`{"kind":"accepted","run":"run-1","time":"2026-01-02T03:04:05Z","flow":"proposed",`+
			`"name":%q,"instance":%s,"instance_hash":%q,"opts":{"workers":4}}`,
			gi.Name, payload.Bytes(), gen.HashBytes(canon)),
		`{"kind":"started","run":"run-1","time":"2026-01-02T03:04:06Z","attempt":1}`,
	} {
		fmt.Fprintf(&wal, "%d %08x %s\n", len(rec), crc32.ChecksumIEEE([]byte(rec)), rec)
	}
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	if err := os.WriteFile(path, wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	j, rep := openJournal(t, path)
	defer j.Close()
	s := New(Config{Journal: j})
	finished, requeued, failed := s.Recover(rep)
	if finished != 0 || requeued != 1 || failed != 0 {
		t.Fatalf("Recover = %d finished, %d requeued, %d failed; want 0/1/0",
			finished, requeued, failed)
	}
	if !s.Wait("run-1") {
		t.Fatal("requeued run-1 unknown to recovered server")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st := getStatus(t, ts.URL+"/runs/run-1")
	if st.State != StateDone || !st.Recovered {
		t.Fatalf("recovered run = state %s recovered %v (err %q)", st.State, st.Recovered, st.Error)
	}
	if st.InstanceHash != refSt.InstanceHash || st.ResultHash != refSt.ResultHash {
		t.Fatalf("legacy journal replay = instance %s result %s, reference %s / %s",
			st.InstanceHash, st.ResultHash, refSt.InstanceHash, refSt.ResultHash)
	}
}

// TestDrainLifecycle walks the graceful-shutdown sequence: StartDrain
// flips healthz and admission to 503, DrainWait reports the stuck run
// at its deadline, and Checkpoint journals it as interrupted so the
// next start requeues it.
func TestDrainLifecycle(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.ndjson")
	j, _ := openJournal(t, wal)
	s := New(Config{MaxRuns: 1, Journal: j})
	running := make(chan struct{}, 1)
	s.flows["block"] = func(in *gen.Instance, opt flow.Options) (*flow.Result, error) {
		running <- struct{}{}
		<-opt.Ctx.Done()
		return nil, fmt.Errorf("blocked flow: %w", robust.ErrCanceled)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inst := testInstance(t)
	_, st, _ := postRun(t, ts.URL, "?flow=block", inst)
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking run never started")
	}

	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if code, body := getBody(t, ts.URL+"/healthz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, body)
	}
	resp, err := http.Post(ts.URL+"/runs?flow=block", "application/json", strings.NewReader(string(inst)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /runs = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}
	if _, mbody := getBody(t, ts.URL+"/metrics"); !strings.Contains(mbody, "ocserved_draining 1") {
		t.Error("metrics missing ocserved_draining 1")
	}

	// The blocked run cannot finish: DrainWait must hand it back at the
	// deadline instead of hanging.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	remaining := s.DrainWait(dctx)
	dcancel()
	if len(remaining) != 1 || remaining[0] != st.ID {
		t.Fatalf("DrainWait remaining = %v, want [%s]", remaining, st.ID)
	}

	ids := s.Checkpoint()
	if len(ids) != 1 || ids[0] != st.ID {
		t.Fatalf("Checkpoint = %v, want [%s]", ids, st.ID)
	}
	if got := getStatus(t, ts.URL+"/runs/"+st.ID); got.State != StateCanceled {
		t.Fatalf("checkpointed run state = %s, want canceled", got.State)
	}
	j.Close()

	// Replay: the checkpoint is an interrupted record, not a terminal
	// cancel — the run requeues on the next start.
	_, rep := openJournal(t, wal)
	var found *journal.RunState
	for _, rs := range rep.Runs {
		if rs.ID == st.ID {
			found = rs
		}
	}
	if found == nil {
		t.Fatalf("run %s missing from replay", st.ID)
	}
	if !found.Interrupted || !found.NeedsRequeue() {
		t.Fatalf("replayed state = %+v, want interrupted + requeue", found)
	}
}

// TestRetrySupervision: a flow failing with retryable internal errors
// is re-executed under the policy (attempts surfaced, retries
// counted); terminal classes get exactly one attempt.
func TestRetrySupervision(t *testing.T) {
	var slept atomic.Int32
	s := New(Config{
		Retry:      robust.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		RetrySleep: func(time.Duration) { slept.Add(1) },
	})
	var flakyCalls, doomedCalls atomic.Int32
	s.flows["flaky"] = func(in *gen.Instance, opt flow.Options) (*flow.Result, error) {
		if flakyCalls.Add(1) <= 2 {
			return nil, fmt.Errorf("phantom routing conflict: %w", robust.ErrInternal)
		}
		return flow.Proposed(in, opt)
	}
	s.flows["doomed"] = func(in *gen.Instance, opt flow.Options) (*flow.Result, error) {
		doomedCalls.Add(1)
		return nil, fmt.Errorf("no path exists: %w", robust.ErrUnroutable)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inst := testInstance(t)

	code, st, raw := postRun(t, ts.URL, "?flow=flaky&wait=1", inst)
	if code != 200 || st.State != StateDone {
		t.Fatalf("supervised run = %d %s", code, raw)
	}
	if st.Attempts != 3 || flakyCalls.Load() != 3 || slept.Load() != 2 {
		t.Fatalf("attempts=%d calls=%d sleeps=%d, want 3/3/2",
			st.Attempts, flakyCalls.Load(), slept.Load())
	}
	if _, mbody := getBody(t, ts.URL+"/metrics"); !strings.Contains(mbody, "ocroute_run_retries_total 2") {
		t.Error("metrics missing ocroute_run_retries_total 2")
	}

	// Terminal classification: the policy allows 3 attempts, but an
	// unroutable instance must consume exactly one.
	_, st2, _ := postRun(t, ts.URL, "?flow=doomed&wait=1", inst)
	if st2.State != StateFailed || st2.Attempts != 1 || doomedCalls.Load() != 1 {
		t.Fatalf("terminal run = state %s attempts %d calls %d, want failed/1/1",
			st2.State, st2.Attempts, doomedCalls.Load())
	}
}

// TestPendingCancelJournaled (the pending-cancel path): DELETE on a
// queued run finalises it in the response itself — no waiting for its
// goroutine — and journals a terminal canceled record, not an
// interrupted one, so a restart does not resurrect it.
func TestPendingCancelJournaled(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.ndjson")
	j, _ := openJournal(t, wal)
	s := New(Config{MaxRuns: 1, Journal: j})
	running := make(chan struct{}, 1)
	s.flows["block"] = func(in *gen.Instance, opt flow.Options) (*flow.Result, error) {
		running <- struct{}{}
		<-opt.Ctx.Done()
		return nil, fmt.Errorf("blocked flow: %w", robust.ErrCanceled)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inst := testInstance(t)

	_, first, _ := postRun(t, ts.URL, "?flow=block", inst)
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("first run never started")
	}
	_, second, _ := postRun(t, ts.URL, "?flow=block", inst)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+second.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var delSt RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&delSt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 || delSt.State != StateCanceled {
		t.Fatalf("DELETE pending = %d state %s, want 202 canceled immediately",
			resp.StatusCode, delSt.State)
	}

	// Release the runner and close out.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+first.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s.Wait(first.ID)
	s.Wait(second.ID)
	j.Close()

	_, rep := openJournal(t, wal)
	for _, rs := range rep.Runs {
		if rs.ID != second.ID {
			continue
		}
		if rs.State != StateCanceled || rs.NeedsRequeue() {
			t.Fatalf("pending-canceled replay = %+v, want terminal canceled", rs)
		}
		return
	}
	t.Fatalf("run %s missing from replay", second.ID)
}

// TestEvictionRecovery: evicted runs are journaled and never
// resurrected, and replaying a journal holding more finished runs than
// KeepRuns keeps only the newest.
func TestEvictionRecovery(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.ndjson")
	j1, _ := openJournal(t, wal)
	s1 := New(Config{KeepRuns: 2, Journal: j1})
	ts1 := httptest.NewServer(s1.Handler())
	inst := testInstance(t)
	hashes := map[string]string{}
	for i := 0; i < 3; i++ {
		code, st, raw := postRun(t, ts1.URL, "?flow=baseline&wait=1", inst)
		if code != 200 || st.State != StateDone {
			t.Fatalf("run %d = %d %s", i, code, raw)
		}
		hashes[st.ID] = st.ResultHash
	}
	ts1.Close()
	j1.Close()

	// Same cap: the evicted run-1 must stay gone.
	j2, rep := openJournal(t, wal)
	s2 := New(Config{KeepRuns: 2, Journal: j2})
	finished, requeued, failed := s2.Recover(rep)
	if finished != 2 || requeued != 0 || failed != 0 {
		t.Fatalf("Recover = %d/%d/%d, want 2 finished only", finished, requeued, failed)
	}
	ts2 := httptest.NewServer(s2.Handler())
	if code, _ := getBody(t, ts2.URL+"/runs/run-1"); code != 404 {
		t.Errorf("evicted run resurrected by replay: %d", code)
	}
	st3 := getStatus(t, ts2.URL+"/runs/run-3")
	if st3.ResultHash != hashes["run-3"] || !st3.Recovered || st3.Result == nil {
		t.Fatalf("reconstructed run-3 = %+v, want original hash %s", st3, hashes["run-3"])
	}
	// Its perf report died with the old process; none is made up.
	if code, body := getBody(t, ts2.URL+"/runs/run-3/perf"); code != 404 {
		t.Errorf("recovered run-3 /perf = %d %s, want 404", code, body)
	}
	// New submissions must not collide with replayed history.
	code, st4, raw := postRun(t, ts2.URL, "?flow=baseline&wait=1", inst)
	if code != 200 || st4.ID != "run-4" {
		t.Fatalf("post-recovery run = %d id %s (%s), want run-4", code, st4.ID, raw)
	}
	ts2.Close()
	j2.Close()

	// Tighter cap than history: replay applies KeepRuns, newest wins,
	// and the extra evictions are journaled for the next replay.
	j3, rep3 := openJournal(t, wal)
	s3 := New(Config{KeepRuns: 1, Journal: j3})
	s3.Recover(rep3)
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	_, body := getBody(t, ts3.URL+"/runs")
	var list []RunStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "run-4" {
		t.Fatalf("tight-cap replay kept %v, want only run-4", list)
	}
	j3.Close()
	_, rep4 := openJournal(t, wal)
	evicted := 0
	for _, rs := range rep4.Runs {
		if rs.Evicted {
			evicted++
		}
	}
	if evicted != 3 {
		t.Fatalf("replay sees %d evicted runs, want 3 (run-1..run-3)", evicted)
	}
}
