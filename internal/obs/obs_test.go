package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestNopAndCombine(t *testing.T) {
	if (Nop{}).Enabled() {
		t.Error("Nop reports enabled")
	}
	if OrNop(nil).Enabled() {
		t.Error("OrNop(nil) enabled")
	}
	c := &countTracer{}
	if got := OrNop(c); got != Tracer(c) {
		t.Error("OrNop dropped a live tracer")
	}
	if _, ok := Combine(nil, Nop{}).(Nop); !ok {
		t.Errorf("Combine of dead tracers = %T, want Nop", Combine(nil, Nop{}))
	}
	if got := Combine(nil, c, Nop{}); got != Tracer(c) {
		t.Errorf("Combine single survivor = %T, want the tracer itself", got)
	}
	w := NewWriter(&bytes.Buffer{})
	m := Combine(c, w)
	if _, ok := m.(multi); !ok || !m.Enabled() {
		t.Fatalf("Combine(two) = %T enabled=%v", m, m.Enabled())
	}
	m.Emit(Event{Type: EvMBFS, Expanded: 3})
	if c.n != 1 || w.Events() != 1 {
		t.Errorf("fan-out missed a tracer: counter=%d writer=%d", c.n, w.Events())
	}
}

func TestWriterNDJSON(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Type: EvNetStart, Net: "n1", Rank: 1, Terminals: 2})
	w.Emit(Event{Type: EvNetDone, Net: "n1", Wire: 120, Vias: 3})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 || w.Events() != 2 {
		t.Fatalf("lines = %d, events = %d, want 2", len(lines), w.Events())
	}
	if lines[0] != `{"ev":"net_start","net":"n1","rank":1,"terms":2}` {
		t.Errorf("line 0 = %s", lines[0])
	}
	// Zero fields must be omitted: a net_done line carries no rank.
	if strings.Contains(lines[1], "rank") || !strings.Contains(lines[1], `"wire":120`) {
		t.Errorf("line 1 = %s", lines[1])
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

func TestWriterLatchesError(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Emit(Event{Type: EvMBFS})
	if w.Err() == nil {
		t.Fatal("write error not latched")
	}
	w.Emit(Event{Type: EvMBFS})
	if w.Events() != 0 {
		t.Errorf("events after error = %d, want 0", w.Events())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 900, -5} {
		h.Observe(v)
	}
	if h.N != 6 || h.Max != 900 {
		t.Errorf("n=%d max=%d", h.N, h.Max)
	}
	if h.Sum != 906 {
		t.Errorf("sum=%d (negative not clamped?)", h.Sum)
	}
	s := h.String()
	if !strings.Contains(s, "n=6") || !strings.Contains(s, "max=900") {
		t.Errorf("histogram string: %s", s)
	}
}
