package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"overcell/internal/flow"
	"overcell/internal/robust"
	"overcell/internal/serve"
	"overcell/internal/serve/journal"
)

// server is an in-process ocserved: serve.New with the daemon's flag
// defaults (two routing slots, telemetry on, one attempt per run)
// behind a loopback listener. Its journal runs with SyncNever, so a
// run measures the journal code and not the disk.
type server struct {
	jr     *journal.Journal
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer(dir string, clients int) (*server, error) {
	jr, _, err := journal.Open(filepath.Join(dir, "wal.ndjson"), journal.Options{Sync: journal.SyncNever})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	svc := serve.New(serve.Config{
		MaxRuns: 2, MaxPending: 16, KeepRuns: 64,
		Retry:   robust.Policy{MaxAttempts: 1, BaseDelay: 100 * time.Millisecond, Cap: 10 * time.Second},
		Journal: jr,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jr.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{
		jr:     jr,
		hs:     &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for the serving goroutine and
// closes the journal.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	if jerr := s.jr.Close(); err == nil {
		err = jerr
	}
	return err
}

// runStatus is the part of ocserved's run view the benchmark checks.
type runStatus struct {
	State         string     `json:"state"`
	Error         string     `json:"error"`
	ResultHash    string     `json:"result_hash"`
	Submitted     time.Time  `json:"submitted"`
	Started       *time.Time `json:"started"`
	Finished      *time.Time `json:"finished"`
	StreamEvents  uint64     `json:"stream_events"`
	StreamDropped uint64     `json:"stream_dropped"`
}

// post submits one waited run and checks that it finished done with
// the result hash want.
func (s *server) post(query string, payload []byte, want string) (runStatus, time.Duration, error) {
	var st runStatus
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/runs?"+query, "application/json", bytes.NewReader(payload))
	if err != nil {
		return st, 0, fmt.Errorf("post run: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return st, lat, fmt.Errorf("read run: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return st, lat, fmt.Errorf("post run: status %d: %.200s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, lat, fmt.Errorf("decode run: %w", err)
	}
	switch {
	case st.State != serve.StateDone:
		return st, lat, fmt.Errorf("run state %s: %s", st.State, st.Error)
	case st.ResultHash != want:
		return st, lat, fmt.Errorf("server result hash %.12s, in-process %.12s", st.ResultHash, want)
	case st.Started == nil || st.Finished == nil:
		return st, lat, fmt.Errorf("finished run without start and finish times")
	}
	return st, lat, nil
}

// serveStats accumulates the service-layer view of waited runs.
type serveStats struct {
	mu                     sync.Mutex
	lats                   []float64 // client latency, ms
	queue, route, overhead []float64 // ms
	events, dropped, runs  uint64
}

func (s *serveStats) add(st runStatus, lat time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inServer := st.Finished.Sub(st.Submitted)
	s.lats = append(s.lats, ms(lat))
	s.queue = append(s.queue, ms(st.Started.Sub(st.Submitted)))
	s.route = append(s.route, ms(st.Finished.Sub(*st.Started)))
	s.overhead = append(s.overhead, ms(lat-inServer))
	s.events += st.StreamEvents
	s.dropped += st.StreamDropped
	s.runs++
}

func (s *serveStats) metrics() map[string]float64 {
	return map[string]float64{
		"serve.queue_wait_ms_p50":   median(s.queue),
		"serve.route_ms_p50":        median(s.route),
		"serve.overhead_ms_p50":     median(s.overhead),
		"obs.stream_events_per_run": ratio(float64(s.events), float64(s.runs)),
		"obs.stream_dropped":        float64(s.dropped),
	}
}

// serveLoad is the service workload: closed-loop clients, one per CPU
// up to two, each sending keep-alive POST /runs?flow=proposed&wait=1
// to an in-process server and cycling a pool of small instances.
type serveLoad struct {
	pool, traceOps int
}

// serveQuery is the submission the serve workload sends.
const serveQuery = "flow=proposed&wait=1"

func clientCount() int { return min(2, runtime.NumCPU()) }

// servePool is the set-up product of the serve workload.
type servePool struct {
	dir      string
	srv      *server
	payloads [][]byte
	hashes   []string
	results  []routed
	q        quality
	redraws  int
}

func (p *servePool) close() error {
	err := p.srv.close()
	if rerr := os.RemoveAll(p.dir); err == nil {
		err = rerr
	}
	return err
}

// setup draws and screens the pool, routes it in-process for the
// reference hashes (keeping the results when keep is set), boots the
// server and sends the pool through it once to warm it up, counting
// the routes and runs in t.
func (l *serveLoad) setup(cfg runCfg, keep bool, t *tally) (*servePool, error) {
	p := &servePool{}
	for i := 0; i < l.pool; i++ {
		in, err := tinyFamily(cfg.seed, i, 0)
		if err != nil {
			return nil, fmt.Errorf("serve pool %d: %w", i, err)
		}
		canon, err := in.inst.CanonicalJSON()
		if err != nil {
			return nil, fmt.Errorf("serve pool %d: %w", i, err)
		}
		res, err := flow.Proposed(in.inst, flow.Options{})
		if err != nil {
			return nil, fmt.Errorf("serve pool %d: %w", i, err)
		}
		h := flow.Hash(res)
		t.attempted++
		if h != in.screenHash {
			t.fail(fmt.Errorf("serve pool %d: in-process hash %.12s, screening route %.12s", i, h, in.screenHash))
		}
		p.payloads = append(p.payloads, canon)
		p.hashes = append(p.hashes, h)
		p.q.add(res, in)
		p.redraws += in.redraws
		if keep {
			p.results = append(p.results, routed{in: in, serveFlow: "proposed", res: res, hash: h,
				regions: regions(in.inst, res.BGrid)})
		}
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.workDir, "tmp"), "serve-")
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	p.dir = dir
	if p.srv, err = startServer(dir, clientCount()); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t.drove(l.drive(p, len(p.payloads), 0, &serveStats{}))
	return p, nil
}

// drive sends runs from the clients, cycling the pool, until at least
// minOps runs were sent and window has passed. It returns the runs
// sent, the failures and the first failure.
func (l *serveLoad) drive(p *servePool, minOps int, window time.Duration, st *serveStats) (sent, failed int, first error) {
	var next, bad atomic.Int64
	var once sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && time.Since(start) >= window {
					return
				}
				k := i % len(p.payloads)
				s, lat, err := p.srv.post(serveQuery, p.payloads[k], p.hashes[k])
				if err != nil {
					bad.Add(1)
					once.Do(func() { first = err })
					continue
				}
				st.add(s, lat)
			}
		}()
	}
	wg.Wait()
	return int(next.Load()) - clientCount(), int(bad.Load()), first
}

// run measures the service workload. The clients drive the window in
// segments, one between each two set-up passes; a pass replaces the
// server and pool, and must reproduce the pool's hashes.
func (l *serveLoad) run(cfg runCfg) (_ *report, err error) {
	t := newTally()
	var p *servePool
	defer func() {
		if p != nil {
			closeInto(p, &err)
		}
	}()
	pass := func() error {
		np, err := l.setup(cfg, false, t)
		if err != nil {
			return err
		}
		old := p
		p = np
		if old == nil {
			return nil
		}
		for k := range old.hashes {
			if old.hashes[k] != np.hashes[k] {
				t.fail(fmt.Errorf("set-up pass: pool %d hash differs from the last pass", k))
			}
		}
		return old.close()
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	su, err := startSetups(cfg.setupReps, window, pass)
	if err != nil {
		return nil, err
	}
	hc := newHeapCounter()
	st := &serveStats{}
	var rss []float64
	var wall time.Duration
	var bytes, objs uint64
	for first := true; first || su.elapsed() < window; first = false {
		if err := su.due(); err != nil {
			return nil, err
		}
		rs := startRSS()
		b0, o0 := hc.read()
		t0 := time.Now()
		t.drove(l.drive(p, len(p.payloads), su.next()-su.elapsed(), st))
		wall += time.Since(t0)
		b1, o1 := hc.read()
		bytes += b1 - b0
		objs += o1 - o0
		samples, err := rs.finish()
		if err != nil {
			return nil, err
		}
		rss = append(rss, samples...)
	}
	setupDurs, err := su.finish()
	if err != nil {
		return nil, err
	}
	for _, h := range p.hashes {
		t.digest.Write([]byte(h))
	}
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	n := float64(len(st.lats))
	m := map[string]float64{
		"setup_s":         median(setupDurs),
		"ops_per_s":       ratio(n, wall.Seconds()),
		"latency_ms_p50":  quantile(st.lats, 0.5),
		"latency_ms_p90":  quantile(st.lats, 0.9),
		"latency_ms_p99":  quantile(st.lats, 0.99),
		"alloc_mb_per_op": ratio(mib(bytes), n),
		"allocs_per_op":   ratio(float64(objs), n),
		"rss_mb_p50":      median(rss),
	}
	for k, v := range p.q.metrics() {
		m[k] = v
	}
	return &report{
		metrics: m, attempted: t.attempted, failed: t.failed, firstErr: t.firstErr,
		samples:    map[string]int{"setup_s": len(setupDurs), "latency": len(st.lats), "rss_mb_p50": len(rss)},
		resultHash: t.resultHash(),
		notes: []string{
			fmt.Sprintf("%d clients cycling %d instances for %.1fs; allocation counts server and clients",
				clientCount(), len(p.payloads), wall.Seconds()),
			fmt.Sprintf("peak resident set %.1f MiB (reported, not gated); set-up passes %.3v s", mib(peak), setupDurs),
		},
	}, nil
}

// runTrace routes the pool in-process untraced and traced (the traced
// pass feeds the layer replays), then sends traceOps runs through the
// server for the service-layer metrics.
func (l *serveLoad) runTrace(cfg runCfg) (_ *report, err error) {
	t := newTally()
	p, err := l.setup(cfg, true, t)
	if err != nil {
		return nil, err
	}
	defer closeInto(p, &err)
	var plain []float64
	for _, r := range p.results {
		runtime.GC()
		t0 := time.Now()
		res, err := flow.Proposed(r.in.inst, flow.Options{})
		plain = append(plain, ms(time.Since(t0)))
		t.attempted++
		if err != nil || flow.Hash(res) != r.hash {
			t.fail(fmt.Errorf("in-process re-route of %s does not reproduce its hash (err %v)", r.in.inst.Name, err))
		}
	}
	rp, err := newReplayer(cfg, flow.Options{}, false)
	if err != nil {
		return nil, err
	}
	defer closeInto(rp, &err)
	log := newSpanLog()
	ly := newLayers(log)
	var traced []float64
	degraded := 0
	for i, r := range p.results {
		root := log.open("op", 0, i)
		runtime.GC()
		opt, ft := ly.begin(flow.Options{}, "proposed")
		t0 := time.Now()
		res, err := flow.Proposed(r.in.inst, opt)
		d := time.Since(t0)
		ly.end(ft, d, root, i)
		log.close(root)
		traced = append(traced, ms(d))
		t.attempted++
		if err != nil || flow.Hash(res) != r.hash {
			t.fail(fmt.Errorf("traced route of %s does not reproduce its hash (err %v)", r.in.inst.Name, err))
			continue
		}
		degraded += res.Degraded
		r.res = res
		if err := rp.replay([]routed{r}, log, i); err != nil {
			t.fail(err)
		}
	}
	root := log.open("serve.requests", 0, len(p.results))
	t.drove(l.drive(p, l.traceOps, 0, &rp.sv))
	log.close(root)
	ops := len(p.results)
	m := ly.metrics(ops)
	for k, v := range rp.metrics(ops) {
		m[k] = v
	}
	m["core.degraded_nets"] = float64(degraded) / float64(ops)
	m["gen.redraws"] = float64(p.redraws) / float64(ops)
	m["obs.trace_overhead_pct"] = 100 * (ratio(median(traced), median(plain)) - 1)
	return traceReport(cfg, "serve", log, ly, m, t)
}
