package perf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"overcell/internal/obs"
)

// fakeEnv builds a collector over fully deterministic inputs: a
// fixed-step clock, a sampler that advances by a constant delta per
// reading, and a constant MemStats reader.
type fakeEnv struct {
	now   time.Time
	step  time.Duration
	s     Sample
	sStep Sample
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		now:  time.Unix(1700000000, 0),
		step: time.Millisecond,
		sStep: Sample{
			Allocs: 100, Bytes: 4096, GCCycles: 0,
			GCPauseNS: 0, SchedLatNS: 10, Goroutines: 3,
		},
	}
}

func (f *fakeEnv) clock() time.Time {
	f.now = f.now.Add(f.step)
	return f.now
}

func (f *fakeEnv) sampler() Sample {
	f.s = f.s.Add(f.sStep)
	return f.s
}

func (f *fakeEnv) mem() MemSnap {
	return MemSnap{TotalAllocBytes: 1 << 20, Mallocs: 500, HeapSysBytes: 1 << 22, NumGC: 2, PauseTotalNS: 300}
}

func (f *fakeEnv) collector(run string) *Collector {
	return New(Options{Run: run, Clock: f.clock, Sampler: f.sampler, Mem: f.mem})
}

// drive replays one synthetic two-phase run through the tracer
// interface.
func drive(c *Collector) {
	c.Start()
	c.Emit(obs.Event{Type: obs.EvPhaseStart, Phase: "level-a"})
	c.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "level-a", DurNS: 5e6})
	c.Emit(obs.Event{Type: obs.EvPhaseStart, Phase: "level-b"})

	c.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "level-b", DurNS: 9e6})
	c.Finish()
}

func TestReportDeterministicBytes(t *testing.T) {
	render := func() []byte {
		c := newFakeEnv().collector("det")
		drive(c)
		var b bytes.Buffer
		if err := c.Report().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs rendered different report bytes:\n%s\n---\n%s", a, b)
	}
}

func TestReportContents(t *testing.T) {
	c := newFakeEnv().collector("contents")
	drive(c)
	r := c.Report()

	if !r.Complete || r.Run != "contents" {
		t.Fatalf("header = complete=%v run=%q", r.Complete, r.Run)
	}
	if r.WallNS <= 0 {
		t.Errorf("WallNS = %d, want > 0 under the stepping clock", r.WallNS)
	}
	if r.Runtime.Allocs == 0 || r.Runtime.Bytes == 0 {
		t.Errorf("runtime delta empty: %+v", r.Runtime)
	}
	if len(r.Phases) != 2 || r.Phases[0].Name != "level-a" || r.Phases[1].Name != "level-b" {
		t.Fatalf("phases = %+v, want level-a then level-b in first-seen order", r.Phases)
	}
	if r.Phases[0].WallNS != 5e6 || r.Phases[1].WallNS != 9e6 {
		t.Errorf("phase wall = %d/%d, want the event DurNS values 5e6/9e6",
			r.Phases[0].WallNS, r.Phases[1].WallNS)
	}
	// Each closed phase spans exactly two sampler steps (start and end
	// readings bracket it), so its alloc delta is deterministic too.
	if r.Phases[0].Allocs == 0 {
		t.Errorf("phase alloc delta = 0, want > 0 under the stepping sampler")
	}
}

func TestReportMidRunSnapshot(t *testing.T) {
	c := newFakeEnv().collector("live")
	c.Start()
	c.Emit(obs.Event{Type: obs.EvPhaseStart, Phase: "level-a"})
	r := c.Report()
	if r.Complete {
		t.Error("mid-run report claims Complete")
	}
	if r.WallNS <= 0 {
		t.Errorf("mid-run WallNS = %d, want a live elapsed reading", r.WallNS)
	}
	// The snapshot must not close the run: Finish still works.
	c.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "level-a", DurNS: 1e6})
	c.Finish()
	if r2 := c.Report(); !r2.Complete || len(r2.Phases) != 1 {
		t.Errorf("post-finish report = complete=%v phases=%d", r2.Complete, len(r2.Phases))
	}
}

func TestConstantInputsCollapseDurations(t *testing.T) {
	at := time.Unix(42, 0)
	c := New(Options{
		Run:     "flat",
		Clock:   func() time.Time { return at },
		Sampler: func() Sample { return Sample{} },
		Mem:     func() MemSnap { return MemSnap{} },
	})
	drive(c)
	r := c.Report()
	if r.WallNS != 0 || r.Runtime.Allocs != 0 {
		t.Errorf("constant inputs: wall %d allocs %d, want 0/0", r.WallNS, r.Runtime.Allocs)
	}
	// Phase wall survives: it comes from the events, not the clock.
	if r.Phases[0].WallNS != 5e6 {
		t.Errorf("phase wall = %d, want the event-carried 5e6", r.Phases[0].WallNS)
	}
}

func TestTable(t *testing.T) {
	c := newFakeEnv().collector("table")
	drive(c)
	tab := c.Report().Table()
	for _, want := range []string{
		"run=table (complete)",
		"level-a", "level-b",
	} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	c := newFakeEnv().collector("round")
	drive(c)
	var b bytes.Buffer
	if err := c.Report().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Schema != ReportSchema || len(back.Phases) != 2 {
		t.Errorf("round-tripped report = schema %d, %d phases", back.Schema, len(back.Phases))
	}
}

func TestRuntimeSamplerSmoke(t *testing.T) {
	smp := RuntimeSampler()
	before := smp()
	// Allocate visibly between readings.
	waste := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		waste = append(waste, make([]byte, 1024))
	}
	_ = waste
	after := smp()
	d := after.Sub(before)
	if after.Allocs < before.Allocs {
		t.Errorf("alloc counter went backwards: %d -> %d", before.Allocs, after.Allocs)
	}
	if d.Bytes == 0 {
		t.Errorf("no bytes attributed across a 64KiB allocation burst")
	}
	if after.Goroutines <= 0 {
		t.Errorf("goroutine count = %d, want > 0", after.Goroutines)
	}
	if ReadMem().Mallocs == 0 {
		t.Error("ReadMem returned zero Mallocs")
	}
}

func TestSampleSubAdd(t *testing.T) {
	a := Sample{Allocs: 10, Bytes: 100, GCCycles: 1, GCPauseNS: 5, SchedLatNS: 7, Goroutines: 4}
	b := Sample{Allocs: 25, Bytes: 160, GCCycles: 2, GCPauseNS: 9, SchedLatNS: 8, Goroutines: 6}
	d := b.Sub(a)
	if d.Allocs != 15 || d.Bytes != 60 || d.GCCycles != 1 || d.GCPauseNS != 4 || d.SchedLatNS != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if d.Goroutines != 6 {
		t.Errorf("Sub carried Goroutines %d, want the instantaneous 6", d.Goroutines)
	}
	sum := a.Add(d)
	if sum.Allocs != 25 || sum.Goroutines != 6 {
		t.Errorf("Add = %+v, want accumulated counters and max goroutines", sum)
	}
}
