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
)

// TestListFieldsAndPhaseMetrics drives one run to completion and checks
// the quick per-run figures of the list view (elapsed time, start and
// finish) and the phase families of /metrics. No perf family is
// exported: allocation counters are process-wide, so they cannot be
// attributed to one of several overlapping runs.
func TestListFieldsAndPhaseMetrics(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, st, raw := postRun(t, ts.URL, "?flow=proposed&wait=1", testInstance(t))
	if code != 200 || st.State != StateDone {
		t.Fatalf("run = %d %s", code, raw)
	}

	// The wait=1 response and the list view both carry the quick fields.
	if st.DurationMS < 0 {
		t.Errorf("DurationMS = %d, want >= 0", st.DurationMS)
	}
	code, body := getBody(t, ts.URL+"/runs")
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

	// Phase wall time is the event aggregate's.
	code, body = getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if !strings.Contains(body, `ocroute_phase_ns_total{phase="level-b"}`) {
		t.Error(`metrics missing ocroute_phase_ns_total{phase="level-b"}`)
	}
	for _, gone := range []string{"ocroute_parallel_", "ocroute_perf_"} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics still expose the %q families", gone)
		}
	}
	if strings.Contains(body, `ocroute_phase_ns_total{phase="level-b"} 0`+"\n") {
		t.Error("level-b phase time still zero after a routed job")
	}
}

// TestMetricsScrapeDuringLiveRun hammers /metrics, the run list, the
// run detail and the live congestion series from several goroutines
// while a job is actively routing. Run under -race this is the
// data-race gate for the whole read surface against live observer
// writes.
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
		ts.URL + "/runs/" + st.ID + "/congestion?frames=1",
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
	// Let the scrapers overlap the run's finalisation too.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	code, body = getBody(t, ts.URL+"/runs/"+st.ID)
	if code != 200 || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("final run state = %d %.200s", code, body)
	}
}
