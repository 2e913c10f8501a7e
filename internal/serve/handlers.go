package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"time"

	"aspen/internal/core"
	"aspen/internal/stream"
	"aspen/internal/telemetry"
)

// ParseResponse is the body of a completed parse request. Rejection is
// an answer, not a failure: an input outside the grammar's language
// still gets 200 with accepted=false (and Error when the input could
// not even be tokenized).
type ParseResponse struct {
	Grammar  string `json:"grammar"`
	Accepted bool   `json:"accepted"`
	Error    string `json:"error,omitempty"`
	// Session/Partial identify durable-session chunks (see session.go):
	// Partial acknowledges a persisted checkpoint, with Bytes/Tokens as
	// the durable offsets.
	Session string `json:"session,omitempty"`
	Partial bool   `json:"partial,omitempty"`
	Bytes   int    `json:"bytes"`
	Tokens  int    `json:"tokens"`
	// Cycles is symbol cycles + ε-stalls, the machine's time on the
	// fabric; LexScanCycles is the Cache-Automaton-side work.
	Cycles        int   `json:"cycles"`
	EpsilonStalls int   `json:"epsilonStalls"`
	LexScanCycles int   `json:"lexScanCycles"`
	MaxStackDepth int   `json:"maxStackDepth"`
	Reports       int   `json:"reports"`
	QueueNS       int64 `json:"queueNs"`
	ParseNS       int64 `json:"parseNs"`
}

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the /healthz body. A fabric that has lost banks
// reports "degraded" with 200 — shrunken capacity is a state to route
// around, not an outage — while "draining" keeps its 503.
type HealthResponse struct {
	Status   string   `json:"status"` // "ok", "degraded", or "draining"
	Grammars []string `json:"grammars"`
	UptimeMS int64    `json:"uptimeMs"`
	// Fabric health: provisioned vs surviving banks, and the
	// concurrency width each grammar still has backing.
	FabricBanks      int            `json:"fabricBanks"`
	LiveBanks        int            `json:"liveBanks"`
	EffectiveWorkers map[string]int `json:"effectiveWorkers"`
	// VerifyMode is the silent-corruption detection mode requests run
	// under ("off" when the chaos layer is disarmed). Redundant modes
	// show their cost in EffectiveWorkers: dmr/tmr replicas occupy real
	// fabric banks.
	VerifyMode string `json:"verifyMode"`
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/parse/{grammar}", s.handleParse)
	mux.HandleFunc("GET /v1/grammars", s.handleGrammars)
	mux.HandleFunc("POST /v1/admin/grammars", s.handleAdminGrammars)
	mux.HandleFunc("GET /v1/admin/grammars", s.handleGrammars)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	// Session checkpoint handoff: a fleet router ships sealed session
	// images between nodes through these (see handoff.go).
	mux.HandleFunc("GET /v1/sessions/{grammar}/{id}/checkpoint", s.handleSessionGet)
	mux.HandleFunc("PUT /v1/sessions/{grammar}/{id}/checkpoint", s.handleSessionPut)
	mux.HandleFunc("DELETE /v1/sessions/{grammar}/{id}/checkpoint", s.handleSessionDelete)
	// Flight recorder: the last N completed requests with per-phase
	// latency attribution, joinable to X-Aspen-Trace (see trace.go).
	mux.Handle("GET /v1/debug/requests", s.flight)
	// The PR-1 debug endpoints share this mux: /metrics, /metrics.json,
	// /debug/vars, /debug/pprof/...
	telemetry.Routes(mux, s.reg)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	ts := s.tenants.Load()
	h := HealthResponse{
		Status:           "ok",
		Grammars:         ts.names,
		UptimeMS:         time.Since(s.started).Milliseconds(),
		FabricBanks:      s.fabric.Total(),
		LiveBanks:        s.fabric.Live(),
		EffectiveWorkers: make(map[string]int, len(ts.names)),
		VerifyMode:       verifyModeOf(s.opts.Chaos).String(),
	}
	for _, name := range ts.names {
		h.EffectiveWorkers[name] = ts.byName[name].effectiveWorkers()
	}
	status := http.StatusOK
	if h.LiveBanks < h.FabricBanks {
		h.Status = "degraded"
	}
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// ReadyResponse is the /readyz body. Readiness is routing advice, not
// liveness: 503 here means "place new work elsewhere", while /healthz
// keeps answering 200 for the node's own sake.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Reason explains a false Ready: "draining", "retiring", or
	// "unready" (SetReady(false), e.g. SIGTERM received).
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, ReadyResponse{Ready: true})
		return
	}
	reason := "unready"
	switch {
	case s.draining.Load():
		reason = "draining"
	case s.retiring.Load() > 0:
		reason = "retiring"
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Reason: reason})
}

func (s *Server) handleGrammars(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Grammars())
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	// The span opens before admission (so denials carry X-Aspen-Trace
	// too) and records on every exit path.
	sp := s.beginSpan(w, r)
	defer s.recordSpan(&sp)
	sp.grammar = r.PathValue("grammar")
	g, status, denial := s.admitRequest(sp.grammar)
	if g == nil {
		if denial.retryAfter != "" {
			w.Header().Set("Retry-After", denial.retryAfter)
		}
		s.writeErr(w, &sp, nil, status, outcomeDenied, denial.msg)
		return
	}
	sp.g = g
	defer s.inflight.Done()
	defer g.inflight.Done()
	s.m.requests.Inc()
	g.m.requests.Inc()

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	// Overload control (overload.go), before the scheduler: a request
	// the cost model says cannot finish inside its deadline — or whose
	// tenant the brownout ladder has shed — answers 429 now instead of
	// burning an execution context to fail later.
	remaining := s.opts.RequestTimeout
	if d, ok := r.Context().Deadline(); ok {
		if until := time.Until(d); until < remaining {
			remaining = until
		}
	}
	if reason := s.overloadCheck(g, r.ContentLength, remaining); reason != "" {
		s.shed(w, &sp, g, reason)
		return
	}

	start := time.Now()
	// One scheduler decision (overload.go): run now; wait — queue time
	// — until the tenant is under its width and the server under the
	// AIMD limit; or shed when the tenant's waiting room is full.
	if err := s.sched.acquire(ctx, g.flow); err != nil {
		if errors.Is(err, errRoomFull) {
			s.shed(w, &sp, g, shedQueue)
		} else {
			s.failCtx(w, &sp, g, err)
		}
		return
	}
	defer s.sched.release(g.flow)
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)
	queueNS := time.Since(start).Nanoseconds()
	sp.add(phaseQueue, time.Duration(queueNS))
	// The parse loop checks ctx between reads, but a stalled client
	// leaves Read blocked where no check runs — arm the connection
	// deadline so the read itself is interrupted (best effort: recorders
	// and exotic transports may not support it).
	_ = http.NewResponseController(w).SetReadDeadline(start.Add(s.opts.RequestTimeout))
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	// Durable sessions branch off here: same admission and scheduling,
	// but the parser state persists across requests (and restarts)
	// through the checkpoint store.
	if r.URL.RawQuery != "" {
		if q := r.URL.Query(); q.Get("session") != "" {
			final := q.Get("final") == "1" || q.Get("final") == "true"
			s.serveSession(w, ctx, g, body, q.Get("session"), final, start, queueNS, &sp)
			return
		}
	}
	out, retries, inputErr, sysErr := g.parseGuarded(ctx, body, &sp)
	sp.retries = int32(retries)
	parseNS := time.Since(start).Nanoseconds() - queueNS

	// Feed the control loops: completed parses (and deadline blowouts,
	// which are by definition bad samples) drive the AIMD limit and the
	// tenant's ns/byte predictor. Other system errors say nothing about
	// parse latency and are excluded.
	if sysErr == nil {
		s.observeParse(g, parseNS, out.Bytes)
	} else if errors.Is(sysErr, context.DeadlineExceeded) {
		s.observeParse(g, parseNS, 0)
	}

	if sysErr != nil {
		s.writeSysErr(w, &sp, g, sysErr)
		return
	}
	s.respond(w, &sp, g, "", out, inputErr, start, queueNS)
}

// respond answers a concluded parse — a whole document, or a durable
// session's final chunk (session is then its ID) — and counts its
// outcome. start and queueNS date the request and its scheduler wait.
func (s *Server) respond(w http.ResponseWriter, sp *span, g *grammarEntry, session string, out stream.Outcome, inputErr error, start time.Time, queueNS int64) {
	sp.bytes = int64(out.Bytes)
	// A stack-depth overflow is the client's document exceeding the
	// provisioned nesting budget — a well-defined rejection (422), not a
	// machine fault: it must not count as an error, trip the breaker, or
	// trigger replay (it is deterministic; replaying reproduces it).
	if errors.Is(inputErr, core.ErrStackOverflow) {
		g.m.rejectedDepth.Inc()
		s.writeErr(w, sp, g, http.StatusUnprocessableEntity, outcomeDepth,
			"input exceeds the provisioned stack depth for grammar "+g.name+": "+inputErr.Error())
		return
	}
	resp := ParseResponse{
		Grammar:       g.name,
		Session:       session,
		Accepted:      out.Accepted,
		Bytes:         out.Bytes,
		Tokens:        out.Tokens,
		Cycles:        out.Result.Consumed + out.Result.EpsilonStalls,
		EpsilonStalls: out.Result.EpsilonStalls,
		LexScanCycles: out.LexStats.ScanCycles,
		MaxStackDepth: out.Result.MaxStackDepth,
		Reports:       out.Result.ReportCount,
		QueueNS:       queueNS,
		ParseNS:       time.Since(start).Nanoseconds() - queueNS,
	}
	switch {
	case inputErr != nil:
		resp.Error = inputErr.Error()
		sp.outcome = outcomeInputErr
		g.m.errors.Inc()
	case out.Accepted:
		g.m.accepted.Inc()
	default:
		sp.outcome = outcomeRejected
		g.m.rejected.Inc()
	}
	g.m.bytes.Add(int64(out.Bytes))
	g.m.tokens.Add(int64(out.Tokens))
	total := time.Since(start).Nanoseconds()
	s.m.requestNS.ObserveInt(total)
	g.m.requestNS.ObserveInt(total)
	s.sampleTrace(g, &resp, total)
	t0 := sp.now()
	writeJSON(w, http.StatusOK, resp)
	sp.addSince(phaseRespond, t0)
}

// admitDenial carries a refused routing decision's response pieces.
type admitDenial struct {
	msg        string
	retryAfter string
}

// admitRequest is the serialized routing decision: snapshot lookup,
// drain check, and in-flight registration happen inside one drainMu
// read-section. The lock is what makes drain and entry retirement
// sound: every in-flight registration happens-before any Wait on the
// corresponding wait group (Drain and retireEntry barrier on drainMu's
// write side), so a request can never slip past a completed drain, and
// a snapshot entry can never gain a request after its retirement
// barrier. On success the caller owns one registration on both
// s.inflight and g.inflight; the scheduler decides admit, wait or shed
// afterwards.
func (s *Server) admitRequest(name string) (*grammarEntry, int, admitDenial) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	g := s.tenants.Load().byName[name]
	if g == nil {
		return nil, http.StatusNotFound, admitDenial{msg: "unknown grammar " + strconv.Quote(name)}
	}
	if s.draining.Load() {
		s.m.drainDeny.Inc()
		// Drain 503s carry Retry-After: a client (or fleet router) that
		// raced the readiness flip should retry elsewhere promptly, not
		// treat the denial as terminal.
		return nil, http.StatusServiceUnavailable, admitDenial{msg: "server is draining", retryAfter: "1"}
	}
	s.inflight.Add(1)
	g.inflight.Add(1)
	return g, http.StatusOK, admitDenial{}
}

// shed answers 429 + Retry-After for a request the scheduler or the
// overload checks refused, counted on shed_total{reason}.
func (s *Server) shed(w http.ResponseWriter, sp *span, g *grammarEntry, reason string) {
	s.m.shedTotal[reason].Inc()
	w.Header().Set("Retry-After", s.retryAfter(g))
	s.writeErr(w, sp, g, http.StatusTooManyRequests, outcomeShed,
		"request shed ("+reason+") for grammar "+g.name)
}

// writeErr answers a non-2xx response, stamping the span's disposition
// and attributing the error to the serve_errors_total{code=...} series
// (g may be nil when routing never resolved a tenant).
func (s *Server) writeErr(w http.ResponseWriter, sp *span, g *grammarEntry, status int, outcome, msg string) {
	sp.status = status
	sp.outcome = outcome
	s.countError(g, status)
	t0 := sp.now()
	writeJSON(w, status, ErrorResponse{Error: msg})
	sp.addSince(phaseRespond, t0)
}

// writeSysErr maps a transport/recovery failure (no parse outcome
// exists) to its status: 413 oversized body, 504/cancel for deadlines,
// 503 for breaker and recovery exhaustion, 400 otherwise. Shared by the
// one-shot and durable-session request paths.
func (s *Server) writeSysErr(w http.ResponseWriter, sp *span, g *grammarEntry, sysErr error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(sysErr, &tooBig):
		s.writeErr(w, sp, g, http.StatusRequestEntityTooLarge, outcomeError,
			"request body exceeds "+strconv.FormatInt(tooBig.Limit, 10)+" bytes")
	case errors.Is(sysErr, context.DeadlineExceeded), errors.Is(sysErr, context.Canceled):
		s.failCtx(w, sp, g, sysErr)
	case errors.Is(sysErr, os.ErrDeadlineExceeded):
		// The connection read deadline fired mid-body.
		s.failCtx(w, sp, g, context.DeadlineExceeded)
	case errors.Is(sysErr, errBreakerOpen):
		w.Header().Set("Retry-After", clampRetrySecs(int64(g.chaos.BreakerCooldown/time.Second)))
		s.writeErr(w, sp, g, http.StatusServiceUnavailable, outcomeDenied,
			"grammar "+g.name+" is shedding load (circuit breaker open)")
	case errors.Is(sysErr, errRecoveryExhausted), errors.Is(sysErr, errCheckpointCorrupt):
		g.m.errors.Inc()
		s.writeErr(w, sp, g, http.StatusServiceUnavailable, outcomeError, sysErr.Error())
	default:
		g.m.errors.Inc()
		s.writeErr(w, sp, g, http.StatusBadRequest, outcomeError, sysErr.Error())
	}
}

// failCtx answers a deadline/cancellation failure: 504 when the server
// deadline expired, and a best-effort 499-style close (the client is
// gone) otherwise.
func (s *Server) failCtx(w http.ResponseWriter, sp *span, g *grammarEntry, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.m.timeouts.Inc()
		g.m.errors.Inc()
		s.writeErr(w, sp, g, http.StatusGatewayTimeout, outcomeTimeout, "request deadline exceeded")
		return
	}
	s.m.canceled.Inc()
	// Client cancellation: nobody is listening; record the span (499 by
	// convention: the client closed the request) and return.
	sp.status = 499
	sp.outcome = outcomeCanceled
}

// Retry-After clamp: never below 1 (a cold start with no latency
// history — or a sub-second estimate truncating to 0 — must not tell
// clients to retry immediately) and never above maxRetryAfterSecs (a
// latency spike must not push clients away for minutes).
const maxRetryAfterSecs = 60

func clampRetrySecs(secs int64) string {
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSecs {
		secs = maxRetryAfterSecs
	}
	return strconv.FormatInt(secs, 10)
}

// retryAfter derives the 429 Retry-After hint from the mean observed
// request latency of the grammar times the backlog it would have to
// drain (its running plus waiting requests per context the scheduler
// currently runs it on — bank loss narrows that width), clamped to
// [1, maxRetryAfterSecs].
func (s *Server) retryAfter(g *grammarEntry) string {
	secs := int64(1)
	if n := g.m.requestNS.Count(); n > 0 {
		meanNS := g.m.requestNS.Sum() / float64(n)
		backlog := float64(s.sched.held(g.flow)) / float64(g.effectiveWorkers())
		if est := int64(meanNS * backlog / 1e9); est > secs {
			secs = est
		}
	}
	return clampRetrySecs(secs)
}

// sampleTrace emits every Nth completed request to the trace sink.
func (s *Server) sampleTrace(g *grammarEntry, resp *ParseResponse, totalNS int64) {
	if s.opts.Trace == nil {
		return
	}
	every := int64(s.opts.TraceSample)
	if every < 1 {
		every = 1
	}
	if s.traceSeq.Add(1)%every != 0 {
		return
	}
	s.opts.Trace.Emit(map[string]any{
		"event":    "serve.request",
		"grammar":  g.name,
		"accepted": resp.Accepted,
		"bytes":    resp.Bytes,
		"tokens":   resp.Tokens,
		"cycles":   resp.Cycles,
		"queueNs":  resp.QueueNS,
		"totalNs":  totalNS,
		"error":    resp.Error,
	})
}
