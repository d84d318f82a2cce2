package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"overcell/internal/gen"
	"overcell/internal/obs/perf"
)

// TestPerfEndpointAndListFields drives one run to completion and checks
// the two perf read paths: GET /runs/{id}/perf serves the full
// attribution report, and the list view carries the quick per-run
// figures (elapsed time, start and finish).
func TestPerfEndpointAndListFields(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1", testInstance(t))
	if code != 200 || st.State != StateDone {
		t.Fatalf("run = %d %s", code, raw)
	}

	code, body := getBody(t, ts.URL+"/runs/"+st.ID+"/perf")
	if code != 200 {
		t.Fatalf("perf endpoint = %d %.200s", code, body)
	}
	var rep perf.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("perf report does not decode: %v\n%.300s", err, body)
	}
	if rep.Schema != perf.ReportSchema || !rep.Complete || rep.Run != st.ID {
		t.Errorf("report header = schema %d complete %v run %q", rep.Schema, rep.Complete, rep.Run)
	}
	names := map[string]bool{}
	for _, p := range rep.Phases {
		names[p.Name] = true
	}
	for _, want := range []string{"level-a", "level-b", "verify"} {
		if !names[want] {
			t.Errorf("report missing phase %q: %v", want, names)
		}
	}
	if strings.Contains(body, `"parallel"`) {
		t.Errorf("perf report carries a parallel stratum:\n%.300s", body)
	}

	// The wait=1 response and the list view both carry the quick fields.
	if st.DurationMS < 0 {
		t.Errorf("DurationMS = %d, want >= 0", st.DurationMS)
	}
	code, body = getBody(t, ts.URL+"/runs")
	if code != 200 {
		t.Fatalf("runs list = %d", code)
	}
	var list []RunStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("runs list does not decode: %v", err)
	}
	found := false
	for _, e := range list {
		if e.ID != st.ID {
			continue
		}
		found = true
		if e.Started == nil || e.Finished == nil {
			t.Errorf("list entry missing started/finished: %+v", e)
		}
	}
	if !found {
		t.Fatalf("run %s absent from list", st.ID)
	}

	// The finished run folded into the cumulative perf families.
	code, body = getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		`ocroute_perf_phase_wall_ns_total{phase="level-b"}`,
		`ocroute_perf_phase_allocs_total{phase="level-a"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, gone := range []string{"ocroute_parallel_", "ocroute_perf_speculation_", "ocroute_perf_commit_"} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics still expose the %q families", gone)
		}
	}
	if strings.Contains(body, `ocroute_perf_phase_wall_ns_total{phase="level-b"} 0`+"\n") {
		t.Error("level-b wall counter still zero after a routed job")
	}
}

// TestPerfUnknownRun: the perf endpoint 404s like every other run view.
func TestPerfUnknownRun(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := getBody(t, ts.URL+"/runs/run-99/perf"); code != 404 {
		t.Errorf("perf of unknown run = %d, want 404", code)
	}
}

// TestMetricsScrapeDuringLiveRun hammers /metrics, the run list and
// the live perf snapshot from several goroutines while a job is
// actively routing. Run under -race this is the data-race gate for
// the whole read surface against live collector writes.
func TestMetricsScrapeDuringLiveRun(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A heavier instance than testInstance, so routing overlaps the
	// scrape loop comfortably.
	inst, err := gen.Generate(gen.Params{
		Name: "scrape", Seed: 11,
		Rows: 4, Cells: 8,
		CellWMin: 240, CellWMax: 420, CellHMin: 140, CellHMax: 220,
		RowGap: 64, Margin: 48,
		SignalNets: 80, LevelANets: []int{10},
		RailHalfWidth: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	code, st, body := postRun(t, ts.URL, "?flow=proposed", buf.Bytes())
	if code != 202 {
		t.Fatalf("async submit = %d %s", code, body)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, url := range []string{
		ts.URL + "/metrics",
		ts.URL + "/runs",
		ts.URL + "/runs/" + st.ID + "/perf",
		ts.URL + "/runs/" + st.ID,
	} {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, _ := getBody(t, u); code != 200 {
					t.Errorf("%s = %d during live run", u, code)
					return
				}
			}
		}(url)
	}

	if !s.Wait(st.ID) {
		t.Fatal("run vanished")
	}
	// Let the scrapers overlap the post-finish fold too.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	code, body = getBody(t, ts.URL+"/runs/"+st.ID)
	if code != 200 || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("final run state = %d %.200s", code, body)
	}
}
