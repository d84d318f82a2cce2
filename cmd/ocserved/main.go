// Command ocserved runs the router as a long-lived HTTP service: it
// accepts routing jobs, executes them under work budgets with
// cancellation, and exposes the live ops surface — Prometheus
// /metrics, per-run span traces, congestion heatmaps and pprof.
//
//	ocserved -addr :8344
//	ocserved -addr 127.0.0.1:0 -max-runs 4   # ephemeral port, printed
//	ocserved -journal /var/lib/ocroute       # crash-safe run lifecycle
//
//	# submit a job and wait for it:
//	benchgen -name ami33 | curl -s --data-binary @- \
//	    'http://localhost:8344/runs?flow=proposed&wait=1'
//	curl -s localhost:8344/metrics | grep ocroute_nets_routed_total
//	curl -s localhost:8344/runs
//	curl -s localhost:8344/runs/run-1/heatmap.svg -o heat.svg
//
//	# watch a run live: SSE events, congestion series, animated heatmap
//	curl -N localhost:8344/runs/run-1/events
//	curl -s localhost:8344/runs/run-1/congestion?frames=1
//	curl -s localhost:8344/runs/run-1/congestion.svg -o congest.svg
//
// Structured logs (run-correlated, with run_id and attempt fields) go
// to stderr; -log-format json emits one JSON object per line for log
// shippers. Plain operational lines scripts scrape — the listen
// address, the journal recovery summary — stay on stdout.
//
// The listen address is printed once the socket is bound ("listening
// on http://HOST:PORT"), so scripts can use port 0 and scrape the
// actual port from stdout.
//
// With -journal DIR every run lifecycle transition is appended to
// DIR/wal.ndjson; on the next start the journal is replayed — finished
// runs reappear under /runs with their result hashes, and runs that
// were pending or in flight when the process died are requeued and
// re-executed (the router is deterministic, so the recovered results
// are byte-identical). That requeue is the only re-execution: a run
// routes once per process life, because a deterministic run that fails
// once fails the same way every time. -journal-fsync picks the
// durability/latency trade-off.
//
// Shutdown is a two-stage drain: the first SIGINT/SIGTERM stops
// admissions (healthz 503 "draining", POST /runs 503 + Retry-After)
// and gives in-flight runs -drain-timeout to finish; whatever remains
// is checkpoint-canceled to the journal for requeue on the next start.
// A second signal during the drain forces immediate exit, logging the
// run IDs still in flight.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"overcell/internal/serve"
	"overcell/internal/serve/journal"
	"overcell/internal/version"
)

// newLogger builds the run-correlated structured logger from the
// -log-format/-log-level flags. It writes to stderr: stdout stays
// reserved for the plain operational lines scripts scrape ("listening
// on http://...", the journal recovery summary).
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

func main() {
	addr := flag.String("addr", ":8344", "listen address (host:port; port 0 picks one)")
	maxRuns := flag.Int("max-runs", 2, "maximum concurrently routing jobs")
	maxPending := flag.Int("max-pending", 16, "queued runs beyond which submissions get 503")
	keepRuns := flag.Int("keep-runs", 64, "finished runs retained for /runs")
	journalDir := flag.String("journal", "", "directory for the run-lifecycle journal (empty = no durability)")
	journalSync := flag.String("journal-fsync", "always", "journal fsync policy: always (power-loss durable) or never (process-crash durable, cheaper)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long in-flight runs get to finish after the first SIGTERM before being checkpointed for requeue")
	streamCap := flag.Int("stream-cap", 0, "per-run event ring for /runs/{id}/events SSE subscribers (0 = default, negative disables streaming and congestion telemetry)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json (written to stderr)")
	logLevel := flag.String("log-level", "info", "minimum structured log level: debug, info, warn or error")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("ocserved %s (%s)\n", version.String(), version.Go())
		return
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocserved:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := serve.Config{
		MaxRuns: *maxRuns, MaxPending: *maxPending, KeepRuns: *keepRuns,
		BaseCtx:   ctx,
		StreamCap: *streamCap, Version: version.String(), Logger: logger,
	}

	var rep *journal.Replay
	if *journalDir != "" {
		sync, err := journal.ParseSync(*journalSync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ocserved:", err)
			os.Exit(1)
		}
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ocserved: journal dir:", err)
			os.Exit(1)
		}
		path := filepath.Join(*journalDir, "wal.ndjson")
		j, r, err := journal.Open(path, journal.Options{Sync: sync})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ocserved: journal:", err)
			os.Exit(1)
		}
		defer j.Close()
		cfg.Journal = j
		rep = r
		if r.Torn {
			fmt.Printf("journal: torn final record dropped (crash mid-write), %d intact records replayed\n", r.Records)
		}
	}

	s := serve.New(cfg)
	if rep != nil {
		finished, requeued, failed := s.Recover(rep)
		if finished+requeued+failed > 0 {
			fmt.Printf("journal: recovered %d finished, requeued %d, %d unrecoverable\n",
				finished, requeued, failed)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocserved:", err)
		os.Exit(1)
	}
	fmt.Printf("listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("ocserved: %v, draining (timeout %v; signal again to force exit)\n", sig, *drainTimeout)
		s.StartDrain()

		// A second signal during the drain means "now": log what was
		// still in flight and exit without waiting.
		go func() {
			sig := <-sigc
			fmt.Fprintf(os.Stderr, "ocserved: %v during drain, forcing exit; in flight: %s\n",
				sig, strings.Join(s.InFlight(), " "))
			if cfg.Journal != nil {
				cfg.Journal.Close() // flush what we have; in-flight runs requeue on restart
			}
			os.Exit(1)
		}()

		drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainTimeout)
		remaining := s.DrainWait(drainCtx)
		drainCancel()
		if len(remaining) > 0 {
			fmt.Printf("ocserved: drain timeout, checkpointing %d in-flight runs for requeue: %s\n",
				len(remaining), strings.Join(remaining, " "))
			s.Checkpoint()
		}
		cancel() // release anything still scoped to the server lifetime
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer shutCancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "ocserved: shutdown:", err)
			os.Exit(1)
		}
		fmt.Println("ocserved: drained, bye")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ocserved:", err)
			os.Exit(1)
		}
	}
}
