package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/obs"
	"overcell/internal/robust"
)

// testInstance returns the JSON of a small, fast routing instance.
func testInstance(t *testing.T) []byte {
	t.Helper()
	inst, err := gen.Generate(gen.Params{
		Name: "tiny", Seed: 7,
		Rows: 2, Cells: 6,
		CellWMin: 240, CellWMax: 420, CellHMin: 140, CellHMax: 220,
		RowGap: 64, Margin: 48,
		SignalNets: 10, LevelANets: []int{3},
		RailHalfWidth: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func postRun(t *testing.T, base string, query string, body []byte) (int, RunStatus, string) {
	t.Helper()
	resp, err := http.Post(base+"/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("bad run status %q: %v", raw, err)
		}
	}
	return resp.StatusCode, st, string(raw)
}

func TestEndToEnd(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := getBody(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}

	// A wrapped job body, waited synchronously.
	job, _ := json.Marshal(map[string]any{
		"flow": "proposed", "wait": true,
		"instance": json.RawMessage(testInstance(t)),
	})
	code, st, raw := postRun(t, ts.URL, "", job)
	if code != 200 {
		t.Fatalf("POST /runs = %d: %s", code, raw)
	}
	if st.State != StateDone || st.Result == nil || st.Result.WireLength <= 0 {
		t.Fatalf("run status = %+v", st)
	}
	if st.Spans == nil || st.Spans.Nets == 0 || st.Spans.Open != 0 {
		t.Fatalf("span summary = %+v", st.Spans)
	}
	// The run's own phase times: exact however many runs overlap.
	for _, ph := range []string{"level-a", "level-b", "verify"} {
		if st.Spans.PhaseNS[ph] <= 0 {
			t.Errorf("spans.phase_ns[%q] = %d, want > 0 (%v)", ph, st.Spans.PhaseNS[ph], st.Spans.PhaseNS)
		}
	}

	// Detail view: event summary and full span tree.
	code, body := getBody(t, ts.URL+"/runs/"+st.ID+"?spans=1")
	if code != 200 || !strings.Contains(body, "events:") || !strings.Contains(body, `"span_tree"`) {
		t.Fatalf("run detail = %d %.200s", code, body)
	}

	// List view.
	code, body = getBody(t, ts.URL+"/runs")
	if code != 200 || !strings.Contains(body, st.ID) {
		t.Fatalf("runs list = %d %.200s", code, body)
	}

	// Heatmap of the completed run renders SVG.
	code, body = getBody(t, ts.URL+"/runs/"+st.ID+"/heatmap.svg")
	if code != 200 || !strings.Contains(body, "<svg") {
		t.Fatalf("heatmap = %d %.200s", code, body)
	}

	// Live metrics: routing counters moved, server counters recorded
	// the finished run.
	code, body = getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		`ocserved_runs_finished_total{state="done"} 1`,
		`ocroute_events_total{ev="net_done"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(body, "ocroute_nets_routed_total 0\n") {
		t.Error("nets_routed_total still zero after a routed job")
	}

	// pprof surface answers.
	if code, _ := getBody(t, ts.URL+"/debug/pprof/"); code != 200 {
		t.Errorf("pprof index = %d", code)
	}
}

func TestBareInstanceAndQueryParams(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Bare instance body; flow and wait via query. Baseline has no
	// level B surface, so the heatmap must 404.
	code, st, raw := postRun(t, ts.URL, "?flow=baseline&wait=1", testInstance(t))
	if code != 200 || st.State != StateDone {
		t.Fatalf("baseline run = %d %s", code, raw)
	}
	if code, _ := getBody(t, ts.URL+"/runs/"+st.ID+"/heatmap.svg"); code != 404 {
		t.Errorf("heatmap of channel-only flow = %d, want 404", code)
	}
}

func TestBudgetTripsToPartial(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1&total_budget=1&partial=1", testInstance(t))
	if code != 200 {
		t.Fatalf("budgeted run = %d %s", code, raw)
	}
	if st.State != StatePartial {
		t.Fatalf("state = %s (err %q), want partial", st.State, st.Error)
	}
	if st.Error == "" {
		t.Error("partial run carries no error text")
	}
	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `ocroute_budget_trips_total{sticky="true"}`) {
		t.Error("metrics missing sticky budget trips")
	}
	if !strings.Contains(body, `ocserved_runs_finished_total{state="partial"} 1`) {
		t.Error("metrics missing partial finish count")
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, _ := postRun(t, ts.URL, "", []byte("{not json")); code != 400 {
		t.Errorf("bad body = %d, want 400", code)
	}
	if code, _, _ := postRun(t, ts.URL, "?flow=nosuch", testInstance(t)); code != 400 {
		t.Errorf("unknown flow = %d, want 400", code)
	}
	if code, _ := getBody(t, ts.URL+"/runs/run-99"); code != 404 {
		t.Errorf("unknown run = %d, want 404", code)
	}
}

// TestCancelRunningAndPending wires a blocking flow into the server:
// one run occupies the single slot until canceled, the next queues as
// pending; DELETE must cancel both deterministically.
func TestCancelRunningAndPending(t *testing.T) {
	s := New(Config{MaxRuns: 1})
	running := make(chan struct{}, 2)
	s.flows["block"] = func(inst *gen.Instance, opt flow.Options) (*flow.Result, error) {
		running <- struct{}{}
		<-opt.Ctx.Done()
		return nil, fmt.Errorf("blocked flow: %w", robust.ErrCanceled)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first, _ := postRun(t, ts.URL, "?flow=block", testInstance(t))
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("first run never started")
	}
	_, second, _ := postRun(t, ts.URL, "?flow=block", testInstance(t))

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Cancel the queued run first: it must die while pending.
	if code := del(second.ID); code != 202 {
		t.Fatalf("DELETE pending = %d", code)
	}
	if !s.Wait(second.ID) {
		t.Fatal("second run unknown")
	}
	if code := del(first.ID); code != 202 {
		t.Fatalf("DELETE running = %d", code)
	}
	if !s.Wait(first.ID) {
		t.Fatal("first run unknown")
	}
	for _, id := range []string{first.ID, second.ID} {
		_, body := getBody(t, ts.URL+"/runs/"+id)
		var st RunStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Errorf("run %s state = %s, want canceled", id, st.State)
		}
	}
	// A second DELETE conflicts.
	if code := del(first.ID); code != 409 {
		t.Errorf("DELETE finished = %d, want 409", code)
	}
}

// TestGetRunningRunDetail GETs a run's detail view — event summary
// and span tree included — while its flow is still emitting events.
// Under -race this pins the mid-run read path: the stats tracer and
// span builder must serve race-free reads against a live emitter.
func TestGetRunningRunDetail(t *testing.T) {
	s := New(Config{MaxRuns: 1})
	running := make(chan struct{}, 1)
	s.flows["chatty"] = func(inst *gen.Instance, opt flow.Options) (*flow.Result, error) {
		tr := obs.OrNop(opt.Tracer)
		running <- struct{}{}
		for {
			select {
			case <-opt.Ctx.Done():
				return nil, fmt.Errorf("chatty flow: %w", robust.ErrCanceled)
			default:
				tr.Emit(obs.Event{Type: obs.EvMBFS, Expanded: 3, Levels: 1})
				tr.Emit(obs.Event{Type: obs.EvNetDone, Net: "n", Wire: 5, Vias: 1})
			}
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, _ := postRun(t, ts.URL, "?flow=chatty", testInstance(t))
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("chatty run never started")
	}
	for i := 0; i < 20; i++ {
		code, body := getBody(t, ts.URL+"/runs/"+st.ID+"?spans=1")
		if code != 200 || !strings.Contains(body, "events:") {
			t.Fatalf("mid-run detail = %d %.200s", code, body)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !s.Wait(st.ID) {
		t.Fatal("chatty run unknown")
	}
}

// TestPendingQueueCap fills the single routing slot and the pending
// queue, then checks that the next submission is shed with 503 and
// counted, instead of growing the queue without bound.
func TestPendingQueueCap(t *testing.T) {
	s := New(Config{MaxRuns: 1, MaxPending: 1})
	running := make(chan struct{}, 1)
	s.flows["block"] = func(inst *gen.Instance, opt flow.Options) (*flow.Result, error) {
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
	code, second, _ := postRun(t, ts.URL, "?flow=block", inst)
	if code != 202 {
		t.Fatalf("queued submission = %d, want 202", code)
	}
	code, _, raw := postRun(t, ts.URL, "?flow=block", inst)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap submission = %d %.200s, want 503", code, raw)
	}
	if _, body := getBody(t, ts.URL+"/metrics"); !strings.Contains(body, "ocserved_runs_rejected_total 1") {
		t.Error("metrics missing rejected submission count")
	}
	// Shedding is transient: cancelling the queued run frees the slot.
	for _, id := range []string{second.ID, first.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !s.Wait(id) {
			t.Fatalf("run %s unknown", id)
		}
	}
	if code, _, _ := postRun(t, ts.URL, "?flow=baseline&wait=1", inst); code != 200 {
		t.Errorf("post-drain submission = %d, want 200", code)
	}
}

func TestEviction(t *testing.T) {
	s := New(Config{KeepRuns: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inst := testInstance(t)
	var last RunStatus
	for i := 0; i < 3; i++ {
		code, st, raw := postRun(t, ts.URL, "?flow=baseline&wait=1", inst)
		if code != 200 {
			t.Fatalf("run %d = %d %s", i, code, raw)
		}
		last = st
	}
	_, body := getBody(t, ts.URL+"/runs")
	var list []RunStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("retained runs = %d, want 2", len(list))
	}
	if list[0].ID != last.ID {
		t.Errorf("newest-first order broken: %s first, want %s", list[0].ID, last.ID)
	}
	if code, _ := getBody(t, ts.URL+"/runs/run-1"); code != 404 {
		t.Errorf("evicted run still served: %d", code)
	}
}
