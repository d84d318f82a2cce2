// SSE event streaming and congestion telemetry endpoints.
//
// Every accepted run gets a stream.Broker (the tracer fan-out ring
// SSE subscribers read from) and a congest.Series (the deterministic
// commit-boundary congestion time-series), unless Config.StreamCap is
// negative. The broker rides the run's tracer chain so the routing
// hot path only ever pays one buffered append; slow SSE clients are
// dropped forward by the ring, never the other way around.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"overcell/internal/grid"
	"overcell/internal/obs/congest"
	"overcell/internal/obs/stream"
	"overcell/internal/render"
)

// attachTelemetry equips a run with its event broker and congestion
// series. Callers hold s.mu (the fields are read under it elsewhere);
// the constructors themselves take no locks. With StreamCap < 0 both
// stay nil and every streaming surface reports itself disabled.
func (s *Server) attachTelemetry(ru *run) {
	if s.cfg.StreamCap < 0 {
		return
	}
	ru.broker = stream.NewBroker(s.cfg.StreamCap)
	ru.series = congest.New(ru.heatWin, 0)
}

// congestObserver adapts a run's congest.Series to core.CommitObserver
// and mirrors the latest sample into the server's gauge families. The
// series itself stays the deterministic record; the gauges are a lossy
// "now" view shared across runs.
type congestObserver struct {
	series *congest.Series
	s      *Server
}

func (c *congestObserver) NetCommitted(rank int, net string, failed bool, g *grid.Grid) {
	c.series.NetCommitted(rank, net, failed, g)
	last, ok := c.series.Last()
	if !ok {
		return
	}
	c.s.congestSamples.Inc()
	c.s.congestPeak.Set(float64(last.PeakBP))
	c.s.congestOver.Set(float64(last.Overflow))
	c.s.congestUtilH.Set(float64(last.UtilHBP))
	c.s.congestUtilV.Set(float64(last.UtilVBP))
}

// handleEvents serves GET /runs/{id}/events as a Server-Sent Events
// stream. Each routing event becomes one SSE message whose id is the
// broker sequence number, whose event name is the obs event type, and
// whose data is the event's JSON. Subscribers joining late replay
// from the start of the retained ring; a Last-Event-ID header (or
// ?from= query) resumes after the given sequence. When a client reads
// slower than the ring retains, the gap is surfaced as an explicit
// "drop" event rather than stalling the publisher. Heartbeat comments
// keep idle connections alive; an "end" event marks run completion.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	s.mu.Lock()
	br := ru.broker
	s.mu.Unlock()
	if br == nil {
		http.Error(w, "event streaming disabled for this run", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	from, notice := resumeCursor(r, br)
	sub := br.Subscribe(from)
	defer sub.Close()
	s.streamSubs.Inc()
	defer s.streamSubs.Dec()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	if notice != nil {
		fmt.Fprintf(w, "event: drop\ndata: %s\n\n", notice)
		fl.Flush()
	}

	for {
		hb, cancel := context.WithTimeout(r.Context(), s.cfg.StreamHeartbeat)
		n, gap, ok, err := sub.Next(hb)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil {
				// Idle interval: keep the connection (and any proxies
				// on the way) alive with a comment frame.
				fmt.Fprint(w, ": hb\n\n")
				fl.Flush()
				continue
			}
			return // client gone
		}
		if gap > 0 {
			s.streamDropped.Add(int64(gap))
			fmt.Fprintf(w, "event: drop\ndata: {\"dropped\":%d}\n\n", gap)
		}
		if !ok {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		data, merr := json.Marshal(n.Ev)
		if merr != nil {
			continue
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", n.Seq, n.Ev.Type, data)
		fl.Flush()
	}
}

// resumeCursor resolves the client's requested resume point — the
// Last-Event-ID header (standard SSE reconnect, names the last
// sequence already seen) or the ?from= query (names the first sequence
// wanted) — against the broker's published count. Out-of-range input
// never fails the request and never silently falls back: a garbage or
// negative cursor replays from the start, and a cursor beyond anything
// published clamps to the live edge (where a finished run ends the
// stream immediately and a live run resumes with the next event); both
// corrections are announced to the client as an explicit drop notice
// so a resuming client cannot mistake the corrected stream for the
// continuation it asked for. Without the clamp a past-end cursor would
// sit between the broker's gap accounting (which only covers cursors
// that fall behind the ring) and the live edge, silently swallowing
// every event published until the sequence caught up.
func resumeCursor(r *http.Request, br *stream.Broker) (from uint64, notice []byte) {
	raw := r.Header.Get("Last-Event-ID")
	after := raw != "" // header names the last seen event; resume after it
	if raw == "" {
		raw = r.URL.Query().Get("from")
	}
	if raw == "" {
		return 0, nil
	}
	published, _, _ := br.Stats()
	seq, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		// Garbage, including negatives (ParseUint rejects a sign).
		return 0, dropNotice(fmt.Sprintf("unparseable cursor %q: replaying from start", raw))
	}
	if after {
		if seq == math.MaxUint64 {
			// seq+1 would wrap to 0 and silently replay everything.
			return published, dropNotice(fmt.Sprintf("cursor %s out of range: resuming at live edge %d", raw, published))
		}
		seq++
	}
	if seq > published {
		return published, dropNotice(fmt.Sprintf("cursor %s out of range: resuming at live edge %d", raw, published))
	}
	return seq, nil
}

// dropNotice builds the JSON payload of a cursor-correction drop
// event: zero events were actually lost (dropped counts ring
// evictions, and none happened here), the reason says what was
// corrected.
func dropNotice(reason string) []byte {
	b, _ := json.Marshal(struct {
		Dropped uint64 `json:"dropped"`
		Reason  string `json:"reason"`
	}{0, reason})
	return b
}

// handleCongestion serves the run's congestion time-series as JSON.
// ?frames=1 includes the per-tile occupancy frames (one int slice per
// sample) on top of the per-net summary samples. The payload is
// deterministic: byte-identical for a given instance.
func (s *Server) handleCongestion(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	s.mu.Lock()
	series := ru.series
	s.mu.Unlock()
	if series == nil {
		http.Error(w, "congestion telemetry disabled for this run", http.StatusNotFound)
		return
	}
	frames := false
	if v := r.URL.Query().Get("frames"); v == "1" || v == "true" {
		frames = true
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, series.Report(frames))
}

// handleCongestionSVG renders the run's congestion series as an
// animated SVG heatmap: each frame is one committed net, played back
// on a fixed-interval clock.
func (s *Server) handleCongestionSVG(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	s.mu.Lock()
	series := ru.series
	s.mu.Unlock()
	if series == nil {
		http.Error(w, "congestion telemetry disabled for this run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_ = render.CongestionSVG(w, series.Report(true)) // fails only on a write error, as in handleHeatmap
}
