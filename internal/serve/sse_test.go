package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/obs"
	"overcell/internal/obs/congest"
	"overcell/internal/robust"
)

// sseMsg is one parsed Server-Sent Events message.
type sseMsg struct {
	id, event, data string
}

// parseSSE splits an SSE body into messages, dropping comment frames
// (heartbeats).
func parseSSE(t *testing.T, body string) []sseMsg {
	t.Helper()
	var out []sseMsg
	for _, frame := range strings.Split(body, "\n\n") {
		var m sseMsg
		seen := false
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case line == "" || strings.HasPrefix(line, ":"):
			case strings.HasPrefix(line, "id: "):
				m.id, seen = line[len("id: "):], true
			case strings.HasPrefix(line, "event: "):
				m.event, seen = line[len("event: "):], true
			case strings.HasPrefix(line, "data: "):
				m.data, seen = line[len("data: "):], true
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
		if seen {
			out = append(out, m)
		}
	}
	return out
}

// getSSE fetches an events URL to completion (the handler ends the
// stream once the run is finished and the ring drained) and parses it.
func getSSE(t *testing.T, url string, lastEventID string) []sseMsg {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d %.200s", url, resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseSSE(t, string(b))
}

func TestSSEReplayAndResume(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1", testInstance(t))
	if st.State != StateDone {
		t.Fatalf("run = %s %.200s", st.State, raw)
	}

	// Late joiner: the whole event history replays from sequence 0.
	msgs := getSSE(t, ts.URL+"/runs/"+st.ID+"/events", "")
	if len(msgs) < 3 {
		t.Fatalf("only %d SSE messages", len(msgs))
	}
	if last := msgs[len(msgs)-1]; last.event != "end" {
		t.Fatalf("stream did not finish with end event: %+v", last)
	}
	byType := map[string]int{}
	for _, m := range msgs {
		byType[m.event]++
	}
	for _, want := range []string{"phase_start", "phase_end", "net_done"} {
		if byType[want] == 0 {
			t.Errorf("no %s events in stream (got %v)", want, byType)
		}
	}
	if msgs[0].id != "0" {
		t.Errorf("replay starts at seq %s, want 0", msgs[0].id)
	}
	// Event payloads are the obs event JSON.
	var ev obs.Event
	if err := json.Unmarshal([]byte(msgs[0].data), &ev); err != nil || ev.Type == "" {
		t.Fatalf("first event data %q: %v", msgs[0].data, err)
	}

	// Resume after a mid-stream id: delivery restarts at exactly id+1.
	mid := msgs[len(msgs)/2]
	resumed := getSSE(t, ts.URL+"/runs/"+st.ID+"/events", mid.id)
	if len(resumed) == 0 {
		t.Fatal("resumed stream empty")
	}
	midSeq, _ := strconv.Atoi(mid.id)
	if got := resumed[0].id; got != strconv.Itoa(midSeq+1) {
		t.Fatalf("resume after %s started at %q, want %d", mid.id, got, midSeq+1)
	}
	want := len(msgs) - len(msgs)/2 - 1 // everything after mid, end event included
	if len(resumed) != want {
		t.Fatalf("resumed %d messages, want %d", len(resumed), want)
	}

	// Run status folds the broker stats.
	_, body := getBody(t, ts.URL+"/runs/"+st.ID)
	var full RunStatus
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatal(err)
	}
	if full.StreamEvents == 0 || full.StreamDropped != 0 {
		t.Errorf("stream stats = %d published / %d dropped", full.StreamEvents, full.StreamDropped)
	}
}

// TestSSESlowClientDrop caps the ring far below the run's event count:
// a subscriber replaying from the start must get an explicit drop
// notice for the evicted prefix, then the retained tail — the
// publisher never blocks on it.
func TestSSESlowClientDrop(t *testing.T) {
	s := New(Config{StreamCap: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1", testInstance(t))
	if st.State != StateDone {
		t.Fatalf("run = %s %.200s", st.State, raw)
	}
	if st.StreamEvents <= 8 {
		t.Fatalf("run published only %d events; test needs > cap", st.StreamEvents)
	}

	msgs := getSSE(t, ts.URL+"/runs/"+st.ID+"/events", "")
	if msgs[0].event != "drop" {
		t.Fatalf("first message = %+v, want drop notice", msgs[0])
	}
	var d struct {
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(msgs[0].data), &d); err != nil {
		t.Fatal(err)
	}
	if want := st.StreamEvents - 8; d.Dropped != want {
		t.Errorf("drop notice = %d, want %d", d.Dropped, want)
	}
	// 8 retained events + drop notice + end.
	if len(msgs) != 10 {
		t.Fatalf("%d messages, want 10", len(msgs))
	}

	_, body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, fmt.Sprintf("ocserved_stream_dropped_total %d", d.Dropped)) {
		t.Errorf("metrics missing dropped count %d", d.Dropped)
	}
	_, body = getBody(t, ts.URL+"/runs/"+st.ID)
	var full RunStatus
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatal(err)
	}
	if full.StreamDropped != d.Dropped {
		t.Errorf("status stream_dropped = %d, want %d", full.StreamDropped, d.Dropped)
	}
}

// TestSSECursorOutOfRange audits the resume surface against hostile
// cursors: garbage, negative, past-end, and the MaxUint64 header whose
// naive seq+1 wraps to zero. Every case must answer 200 with a valid
// SSE stream that starts with an explicit drop notice naming the
// correction — never a 500, and never a silent replay-from-zero a
// resuming client would mistake for its continuation.
func TestSSECursorOutOfRange(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1", testInstance(t))
	if st.State != StateDone {
		t.Fatalf("run = %s %.200s", st.State, raw)
	}
	base := getSSE(t, ts.URL+"/runs/"+st.ID+"/events", "")
	if len(base) < 3 {
		t.Fatalf("only %d baseline SSE messages", len(base))
	}
	published := st.StreamEvents

	cases := []struct {
		name        string
		query       string
		lastEventID string
		wantReason  string // substring of the leading drop notice; "" = no notice
		wantFirstID string // id of the first event after any notice; "" = straight to end
	}{
		{name: "valid from", query: "?from=1", wantFirstID: "1"},
		{name: "negative from", query: "?from=-5", wantReason: "unparseable", wantFirstID: "0"},
		{name: "garbage from", query: "?from=banana", wantReason: "unparseable", wantFirstID: "0"},
		{name: "past-end from", query: fmt.Sprintf("?from=%d", published+1000), wantReason: "out of range"},
		{name: "live-edge from", query: fmt.Sprintf("?from=%d", published)}, // exactly the edge: valid, no notice, no events
		{name: "garbage last-event-id", lastEventID: "not-a-number", wantReason: "unparseable", wantFirstID: "0"},
		{name: "past-end last-event-id", lastEventID: fmt.Sprintf("%d", published+7), wantReason: "out of range"},
		{name: "maxuint64 last-event-id", lastEventID: "18446744073709551615", wantReason: "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msgs := getSSE(t, ts.URL+"/runs/"+st.ID+"/events"+tc.query, tc.lastEventID)
			if len(msgs) == 0 {
				t.Fatal("empty stream")
			}
			if last := msgs[len(msgs)-1]; last.event != "end" {
				t.Fatalf("stream did not finish with end event: %+v", last)
			}
			rest := msgs
			if tc.wantReason != "" {
				first := msgs[0]
				if first.event != "drop" {
					t.Fatalf("first message = %+v, want drop notice", first)
				}
				var d struct {
					Dropped uint64 `json:"dropped"`
					Reason  string `json:"reason"`
				}
				if err := json.Unmarshal([]byte(first.data), &d); err != nil {
					t.Fatalf("drop notice %q: %v", first.data, err)
				}
				if d.Dropped != 0 || !strings.Contains(d.Reason, tc.wantReason) {
					t.Fatalf("drop notice = %+v, want dropped 0 and reason containing %q", d, tc.wantReason)
				}
				rest = msgs[1:]
			} else if msgs[0].event == "drop" {
				t.Fatalf("unexpected drop notice: %+v", msgs[0])
			}
			if tc.wantFirstID == "" {
				// Clamped to the live edge of a finished run: nothing
				// but the end marker may follow.
				if len(rest) != 1 {
					t.Fatalf("%d messages after notice, want just end: %+v", len(rest), rest)
				}
				return
			}
			if rest[0].id != tc.wantFirstID {
				t.Fatalf("first event id = %q, want %q", rest[0].id, tc.wantFirstID)
			}
			if tc.wantFirstID == "0" && len(rest) != len(base) {
				t.Fatalf("replay-from-start delivered %d messages, want the full %d", len(rest), len(base))
			}
		})
	}
}

// TestSSELiveHeartbeatAndEnd opens the stream against a run that goes
// quiet mid-flight: heartbeat comments must keep flowing, and
// cancellation must close the stream with an end event.
func TestSSELiveHeartbeatAndEnd(t *testing.T) {
	s := New(Config{MaxRuns: 1, StreamHeartbeat: 30 * time.Millisecond})
	running := make(chan struct{}, 1)
	s.flows["quiet"] = func(inst *gen.Instance, opt flow.Options) (*flow.Result, error) {
		obs.OrNop(opt.Tracer).Emit(obs.Event{Type: obs.EvPhaseStart, Phase: "quiet"})
		running <- struct{}{}
		<-opt.Ctx.Done()
		return nil, fmt.Errorf("quiet flow: %w", robust.ErrCanceled)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, _ := postRun(t, ts.URL, "?flow=quiet", testInstance(t))
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("quiet run never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/runs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	sawEvent, sawHB := false, false
	for !sawHB || !sawEvent {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early (event %v hb %v): %v", sawEvent, sawHB, err)
		}
		if strings.HasPrefix(line, "event: phase_start") {
			sawEvent = true
		}
		if strings.HasPrefix(line, ": hb") {
			sawHB = true
		}
	}

	// Cancel the run; the stream must terminate with an end event.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), "event: end") {
		t.Fatalf("canceled run's stream missing end event: %q", rest)
	}
	if !s.Wait(st.ID) {
		t.Fatal("quiet run unknown")
	}
}

// goneClient is a ResponseWriter whose client has disconnected: every
// body write fails. It records the status codes a handler sends.
type goneClient struct {
	header http.Header
	codes  []int
}

func (w *goneClient) Header() http.Header  { return w.header }
func (w *goneClient) WriteHeader(code int) { w.codes = append(w.codes, code) }
func (w *goneClient) Write([]byte) (int, error) {
	if len(w.codes) == 0 {
		w.codes = append(w.codes, http.StatusOK) // the implicit status of a first write
	}
	return 0, io.ErrClosedPipe
}

func TestCongestionEndpoints(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1", testInstance(t))
	if st.State != StateDone {
		t.Fatalf("run = %s %.200s", st.State, raw)
	}

	code, body := getBody(t, ts.URL+"/runs/"+st.ID+"/congestion")
	if code != 200 {
		t.Fatalf("congestion = %d %.200s", code, body)
	}
	var rep struct {
		Win     int               `json:"win"`
		Cols    int               `json:"cols"`
		Rows    int               `json:"rows"`
		Samples []json.RawMessage `json:"samples"`
		Frames  [][]int           `json:"frames"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) == 0 || rep.Cols == 0 || rep.Rows == 0 {
		t.Fatalf("empty congestion report: %.200s", body)
	}
	if rep.Frames != nil {
		t.Error("frames included without ?frames=1")
	}
	_, body = getBody(t, ts.URL+"/runs/"+st.ID+"/congestion?frames=1")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != len(rep.Samples) {
		t.Fatalf("%d frames for %d samples", len(rep.Frames), len(rep.Samples))
	}

	code, body = getBody(t, ts.URL+"/runs/"+st.ID+"/congestion.svg")
	if code != 200 || !strings.Contains(body, "<svg") || !strings.Contains(body, "<animate") {
		t.Fatalf("congestion.svg = %d %.200s", code, body)
	}
	// A client that stops reading mid-SVG gets no second status line.
	for _, path := range []string{"/congestion.svg", "/heatmap.svg"} {
		w := &goneClient{header: http.Header{}}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/runs/"+st.ID+path, nil))
		if len(w.codes) != 1 || w.codes[0] != http.StatusOK {
			t.Errorf("%s to a gone client sent statuses %v, want [200]", path, w.codes)
		}
	}

	_, body = getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"ocroute_congestion_samples_total",
		`ocroute_congestion_track_util_bp{layer="h"}`,
		"ocserved_run_queue_wait_ms_count 1",
		"ocserved_stream_events_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHugeHeatWin posts the largest heat_win the query accepts. The
// window is clamped to the grid's larger side, so the congestion series
// and the heatmap each hold one tile instead of wrapping the tile count
// to an empty tiling.
func TestHugeHeatWin(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1&heat_win=9223372036854775807", testInstance(t))
	if st.State != StateDone {
		t.Fatalf("run = %s %.200s", st.State, raw)
	}
	_, body := getBody(t, ts.URL+"/runs/"+st.ID+"/congestion")
	var rep congest.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cols != 1 || rep.Rows != 1 || len(rep.Samples) == 0 {
		t.Fatalf("tiling = %dx%d with %d samples, want 1x1: %.200s", rep.Cols, rep.Rows, len(rep.Samples), body)
	}
	for _, sm := range rep.Samples {
		if sm.PeakBP < 0 {
			t.Fatalf("sample %+v has no peak tile", sm)
		}
	}
	code, body := getBody(t, ts.URL+"/runs/"+st.ID+"/heatmap.svg")
	if code != 200 || !strings.Contains(body, `viewBox="0 0 12 12"`) {
		t.Fatalf("heatmap.svg = %d %.200s, want one 12x12 tile", code, body)
	}
}

// TestStreamingDisabled turns telemetry off (StreamCap < 0): runs
// still execute, the streaming surfaces answer 404, and statuses carry
// no stream stats.
func TestStreamingDisabled(t *testing.T) {
	s := New(Config{StreamCap: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1", testInstance(t))
	if st.State != StateDone {
		t.Fatalf("run = %s %.200s", st.State, raw)
	}
	for _, path := range []string{"/events", "/congestion", "/congestion.svg"} {
		if code, _ := getBody(t, ts.URL+"/runs/"+st.ID+path); code != 404 {
			t.Errorf("%s with streaming disabled = %d, want 404", path, code)
		}
	}
	if st.StreamEvents != 0 || st.StreamDropped != 0 {
		t.Errorf("disabled run carries stream stats: %+v", st)
	}
}

func TestListStateFilter(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inst := testInstance(t)

	_, done, _ := postRun(t, ts.URL, "?flow=proposed&wait=1", inst)
	_, partial, _ := postRun(t, ts.URL, "?flow=proposed&wait=1&total_budget=1&partial=1", inst)
	if done.State != StateDone || partial.State != StatePartial {
		t.Fatalf("fixture states = %s, %s", done.State, partial.State)
	}

	list := func(query string) []RunStatus {
		code, body := getBody(t, ts.URL+"/runs"+query)
		if code != 200 {
			t.Fatalf("GET /runs%s = %d %.200s", query, code, body)
		}
		var out []RunStatus
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if all := list(""); len(all) != 2 || all[0].ID != partial.ID {
		t.Fatalf("unfiltered list = %+v, want newest first", all)
	}
	if got := list("?state=done"); len(got) != 1 || got[0].ID != done.ID {
		t.Fatalf("state=done list = %+v", got)
	}
	if got := list("?state=partial"); len(got) != 1 || got[0].ID != partial.ID {
		t.Fatalf("state=partial list = %+v", got)
	}
	if got := list("?state=failed"); len(got) != 0 {
		t.Fatalf("state=failed list = %+v, want empty", got)
	}
	if code, body := getBody(t, ts.URL+"/runs?state=bogus"); code != 400 {
		t.Fatalf("unknown state filter = %d %.200s, want 400", code, body)
	}
}

func TestHealthzVersion(t *testing.T) {
	s := New(Config{Version: "v9.9.9-test"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := getBody(t, ts.URL+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") || !strings.Contains(body, "v9.9.9-test") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, `ocroute_build_info{go="go`) ||
		!strings.Contains(body, `version="v9.9.9-test"} 1`) {
		t.Errorf("metrics missing build info: %.400s", body)
	}
}
