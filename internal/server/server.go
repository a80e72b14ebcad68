// Package server implements lbcastd, the consensus-as-a-service daemon:
// an HTTP/JSON control plane over the batched consensus engine.
//
// The pipeline has four stages, each its own file:
//
//	admit (admit.go)   per-client quotas and a global pending cap;
//	                   overflow is an explicit 429, so backpressure is
//	                   visible to clients instead of swallowed by memory
//	pack  (pack.go)    compatible requests accumulate into groups keyed
//	                   by graph+parameters and flush on size or linger
//	sched (sched.go)   W workers each run whole groups as batched round
//	                   loops over per-graph memoized analyses, so benign
//	                   steady-state traffic replays compiled flood plans
//	serve (this file)  POST /v1/decide (sync JSON or SSE), /healthz,
//	                   /metrics (Prometheus text), graceful drain
//
// Decisions are byte-identical to independent library Sessions of the
// same requests — packing and scheduling change throughput, never
// outcomes (enforced by the parity tests in this package).
//
// See DESIGN.md §11 for the architecture discussion.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"lbcast/internal/cliutil"
)

// Config tunes the daemon. The zero value of every field selects a
// sensible default (see the field comments); the zero Config is usable.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8418").
	Addr string
	// Workers is the scheduler pool size: how many packed groups execute
	// concurrently, each as its own round loop (default GOMAXPROCS).
	Workers int
	// MaxBatch caps a packed group's size (default 64).
	MaxBatch int
	// Linger is how long the first request of a group waits for company
	// before the group dispatches anyway (default 2ms; negative = no
	// lingering, every request dispatches alone).
	Linger time.Duration
	// MaxPending caps admitted-but-undecided requests daemon-wide
	// (default 1024); beyond it requests are rejected with 429.
	MaxPending int
	// ClientQuota caps one client's pending requests (default 256).
	ClientQuota int
	// MaxGraphs caps the memoized topology cache (default 64); beyond it
	// new graphs still work but are rebuilt per request.
	MaxGraphs int
	// DrainTimeout bounds the graceful drain on shutdown (default 10s).
	DrainTimeout time.Duration
	// OnListen, when set, is called with the bound address once the
	// listener is up (ListenAndServe only; useful with Addr ":0").
	OnListen func(addr string)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8418"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Linger == 0 {
		c.Linger = 2 * time.Millisecond
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	if c.ClientQuota <= 0 {
		c.ClientQuota = 256
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is a running daemon instance: scheduler workers spin up at New
// and stop at Drain. The HTTP side attaches via Handler (for tests and
// embedding) or ListenAndServe (the binary).
type Server struct {
	cfg       Config
	cache     *graphCache
	admit     *admitter
	pack      *packer
	sched     *sched
	metrics   *metrics
	mux       *http.ServeMux
	drainOnce sync.Once
	drainErr  error
}

// New builds a Server and starts its scheduler workers. Callers must
// eventually Drain (ListenAndServe does so on context cancellation).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newGraphCache(cfg.MaxGraphs),
		admit:   newAdmitter(cfg.MaxPending, cfg.ClientQuota),
		metrics: newMetrics(),
	}
	queueCap := cfg.Workers * 2
	if queueCap < 16 {
		queueCap = 16
	}
	s.sched = newSched(cfg.Workers, queueCap, s.metrics, s.finish)
	linger := cfg.Linger
	if linger < 0 {
		linger = 0
	}
	s.pack = newPacker(cfg.MaxBatch, linger, s.sched.submit)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.sched.start()
	return s
}

// finish is the scheduler's per-request completion hook: the pending slot
// returns to the admitter and the decision counters advance.
func (s *Server) finish(client string, ok bool) {
	if ok {
		s.metrics.recordDecided(client)
	}
	s.admit.release(client)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain performs the graceful shutdown handshake: admission stops (new
// requests get 503), every forming group flushes to the scheduler
// immediately, and Drain blocks until all pending decisions are delivered
// or ctx expires (abandoning the remainder). Idempotent; the first
// outcome sticks.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.admit.startDrain()
		s.pack.flushAll()
		if !s.admit.drained(ctx.Done()) {
			s.drainErr = fmt.Errorf("server: drain abandoned %d pending requests: %w", s.admit.depth(), ctx.Err())
			return
		}
		// Only a clean drain stops the workers: with stragglers abandoned,
		// late flushes could still reach the queue, and closing it would
		// turn a timeout into a panic.
		s.sched.stop()
	})
	return s.drainErr
}

// ListenAndServe serves until ctx is canceled, then drains gracefully
// (bounded by Config.DrainTimeout) and shuts the HTTP server down. It
// returns nil after a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if s.cfg.OnListen != nil {
		s.cfg.OnListen(ln.Addr().String())
	}
	srv := &http.Server{Handler: s.mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	if err := srv.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}

// clientID identifies the requester for quotas and metrics: the
// X-Client-ID header when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return "unknown"
	}
	return host
}

// writeError emits a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = cliutil.WriteJSON(w, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds a decision request body.
const maxRequestBytes = 1 << 20

// handleDecide is POST /v1/decide: validate, admit, pack, and stream or
// return the decision.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	client := clientID(r)
	var req DecideRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	wk, err := buildWork(s.cache, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.admit.admit(client); err != nil {
		switch {
		case errors.Is(err, errDraining):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			s.metrics.recordRejected(client, errors.Is(err, errClientQuota))
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		}
		return
	}
	s.metrics.recordAccepted(client)
	pr := &pendingReq{
		client:   client,
		inst:     wk.inst,
		enqueued: time.Now(),
		done:     make(chan decideResult, 1),
	}
	sse := wantsSSE(r)
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		writeSSE(w, "queued", map[string]any{"queue_depth": s.admit.depth()})
	}
	s.pack.add(wk, pr)
	select {
	case res := <-pr.done:
		if res.err != nil {
			if sse {
				writeSSE(w, "error", ErrorResponse{Error: res.err.Error()})
				return
			}
			writeError(w, http.StatusInternalServerError, "batch execution failed: %v", res.err)
			return
		}
		resp := DecideResponse{Outcome: outcomeJSON(res.outcome), Batch: res.batch}
		if sse {
			writeSSE(w, "decision", resp)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = cliutil.WriteJSON(w, resp)
	case <-r.Context().Done():
		// The client went away; the decision still completes with its
		// group (the buffered done channel absorbs it) and the slot is
		// released by the scheduler's completion hook.
	}
}

// wantsSSE reports whether the request asked for a server-sent-event
// stream (Accept: text/event-stream, or ?stream=sse).
func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "sse" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// writeSSE emits one server-sent event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"encode failure"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// healthJSON is the /healthz body.
type healthJSON struct {
	// Status is "ok" while serving and "draining" during shutdown.
	Status string `json:"status"`
	// UptimeSeconds is the daemon's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// QueueDepth is the pending request count.
	QueueDepth int `json:"queue_depth"`
	// Workers is the scheduler pool size.
	Workers int `json:"workers"`
}

// handleHealthz reports liveness: 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthJSON{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		QueueDepth:    s.admit.depth(),
		Workers:       s.cfg.Workers,
	}
	w.Header().Set("Content-Type", "application/json")
	if s.admit.isDraining() {
		h.Status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = cliutil.WriteJSON(w, h)
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w, s.admit.depth(), s.cache.size())
}
