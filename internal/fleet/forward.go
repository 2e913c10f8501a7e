package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"aspen/internal/telemetry"
)

// traceHeader mirrors serve.TraceHeader without importing the server:
// the router assigns (or reuses) the ID pre-admission and forwards it
// on every outbound hop, so one trace ID joins the router's flight
// record to the node's.
const traceHeader = "X-Aspen-Trace"

// Outcome vocabulary for router flight records.
const (
	outcomeRelayed  = "relayed"  // downstream answer relayed verbatim
	outcomeDenied   = "denied"   // router-level refusal (413, no usable node)
	outcomeFailover = "failover" // relayed, after moving the session
	outcomeHedged   = "hedged"   // relayed, from the hedge leg (primary was slow)
	outcomeTimeout  = "timeout"  // request deadline exhausted inside the router
)

// span is one router request's trace context (the router-tier analogue
// of serve's span: pick/forward/retry/failover attribution).
type span struct {
	id      uint64
	start   time.Time
	grammar string
	outcome string
	status  int
	bytes   int64
	retries int32
	phases  [telemetry.MaxPhases]int64
}

func (sp *span) addSince(ph int, t0 time.Time) {
	sp.phases[ph] += time.Since(t0).Nanoseconds()
}

// nextTraceID is a splitmix64 walk from a time-seeded base (same
// construction as the node side).
func (rt *Router) nextTraceID() uint64 {
	z := rt.traceBase + rt.idSeq.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// beginSpan opens the request's span: an inbound X-Aspen-Trace is
// reused (the client or an upstream proxy already traced this
// request), else a fresh ID is minted — before any routing, so even a
// 503 "no usable node" carries it.
func (rt *Router) beginSpan(w http.ResponseWriter, r *http.Request) *span {
	id := uint64(0)
	if h := r.Header.Get(traceHeader); h != "" {
		if v, ok := telemetry.ParseTraceID(h); ok && v != 0 {
			id = v
		}
	}
	if id == 0 {
		id = rt.nextTraceID()
	}
	sp := &span{id: id, start: time.Now(), status: http.StatusOK, outcome: outcomeRelayed}
	w.Header().Set(traceHeader, telemetry.TraceIDString(id))
	return sp
}

// recordSpan folds the span into the phase histograms and the flight
// recorder.
func (rt *Router) recordSpan(sp *span) {
	for i := 0; i < numPhases; i++ {
		if sp.phases[i] > 0 {
			rt.m.phaseNS[i].ObserveInt(sp.phases[i])
		}
	}
	rt.flight.Record(&telemetry.RequestRecord{
		TraceID: sp.id,
		UnixNS:  sp.start.UnixNano(),
		Grammar: sp.grammar,
		Outcome: sp.outcome,
		Status:  sp.status,
		Bytes:   sp.bytes,
		Retries: sp.retries,
		TotalNS: time.Since(sp.start).Nanoseconds(),
		Phases:  sp.phases,
	})
}

// roundTrip performs one forward to a member: one HTTP call, body
// re-sendable (the caller holds the buffered bytes), answer fully
// read. The member's forward counter ticks here; failure accounting is
// the caller's (it knows whether the status is retryable).
func (rt *Router) roundTrip(ctx context.Context, m *member, method, pathAndQuery string, body []byte, traceID string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.base+pathAndQuery, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if traceID != "" {
		req.Header.Set(traceHeader, traceID)
	}
	m.forwards.Inc()
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, rt.opt.MaxBodyBytes+1))
	if err != nil {
		return 0, nil, nil, err
	}
	if int64(len(b)) > rt.opt.MaxBodyBytes {
		// Relaying a silently truncated body under the original status
		// would hand the client a corrupt payload with no error signal;
		// fail the round trip instead. Not a node-health event — the node
		// answered, the router's cap is just smaller.
		return 0, nil, nil, errResponseTooLarge
	}
	return resp.StatusCode, resp.Header, b, nil
}

// errResponseTooLarge marks a downstream answer bigger than
// MaxBodyBytes; callers surface it as a 502 without charging the
// node's breaker.
var errResponseTooLarge = errors.New("downstream response exceeds the configured body cap")

// relay writes a downstream answer to the client verbatim (selected
// headers; the router's own X-Aspen-Trace stamp is already set and the
// node echoes the same ID anyway). Retry-After is the one header the
// router does not trust: it is clamped, not copied.
func relay(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	for _, k := range []string{"Content-Type", "X-Aspen-Session-Bytes", "X-Aspen-Machine"} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	if v := hdr.Get("Retry-After"); v != "" {
		w.Header().Set("Retry-After", clampRetryAfter(v))
	}
	w.WriteHeader(status)
	w.Write(body)
}

// clampRetryAfter bounds a downstream Retry-After to [1, 60] seconds
// before it reaches a client: a misbehaving node must not be able to
// park the fleet's clients for an hour, nor (via zero or garbage)
// invite an immediate stampede.
func clampRetryAfter(v string) string {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 1 {
		return "1"
	}
	if secs > 60 {
		return "60"
	}
	return strconv.Itoa(secs)
}

// retryableStatus reports whether a downstream status means "this node
// cannot take the work" (and the breaker should hear about it). 429 is
// deliberately absent: backpressure is a healthy node shedding load.
func retryableStatus(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// retryAfter extracts a downstream Retry-After (seconds form) as a
// duration, 0 when absent or unparseable. The same distrust as the
// outbound clamp applies inbound: a node asking for more than 60 s
// would otherwise park the router's retry loop until the request
// deadline killed it.
func retryAfter(hdr http.Header) time.Duration {
	v := hdr.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	if secs > 60 {
		secs = 60
	}
	return time.Duration(secs) * time.Second
}

// backoff sleeps the attempt's exponential backoff + jitter (or the
// downstream-requested delay when longer), bounded by ctx. The time
// spent is retry overhead — the caller attributes it to phaseRetry.
// Reports false when the context expired instead.
func (rt *Router) backoff(ctx context.Context, attempt int, requested time.Duration) bool {
	d := rt.opt.RetryBackoff << uint(attempt)
	// A late attempt shifts the base past int64 and wraps to a
	// non-positive duration; it gets the cap too.
	if max := 2 * time.Second; d > max || d <= 0 {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	if requested > d {
		d = requested
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// readBody buffers the request body (bounded), so retries and
// failover re-sends replay identical bytes.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, sp *span) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.opt.MaxBodyBytes+1))
	if err != nil {
		sp.status, sp.outcome = http.StatusBadRequest, outcomeDenied
		httpError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	if int64(len(body)) > rt.opt.MaxBodyBytes {
		sp.status, sp.outcome = http.StatusRequestEntityTooLarge, outcomeDenied
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", rt.opt.MaxBodyBytes)
		return nil, false
	}
	sp.bytes = int64(len(body))
	return body, true
}

// handleParse is the data-plane entry: buffer the body, then the
// stateless path for plain parses or the sticky/failover path for
// durable sessions.
func (rt *Router) handleParse(w http.ResponseWriter, r *http.Request) {
	sp := rt.beginSpan(w, r)
	defer rt.recordSpan(sp)
	sp.grammar = r.PathValue("grammar")
	rt.m.requests.Inc()

	body, ok := rt.readBody(w, r, sp)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opt.RequestTimeout)
	defer cancel()

	if id := r.URL.Query().Get("session"); id != "" {
		rt.serveSession(ctx, w, sp, sp.grammar, id, r.URL.RawQuery, body)
		return
	}
	rt.forwardParse(ctx, w, sp, body, r.URL.RawQuery)
}

// forwardParse is the stateless forward loop: rank by grammar
// identity, try the best usable node, rotate on retryable failures
// with backoff+jitter, honor downstream Retry-After, relay everything
// else verbatim.
func (rt *Router) forwardParse(ctx context.Context, w http.ResponseWriter, sp *span, body []byte, rawQuery string) {
	path := "/v1/parse/" + sp.grammar
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	key := fnv64(rt.fingerprintFor(sp.grammar))
	trace := telemetry.TraceIDString(sp.id)

	tried := make(map[*member]bool)
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		target := rt.pickTarget(key, tried)
		ph := phasePick
		if attempt > 0 {
			ph = phaseRetry
		}
		sp.addSince(ph, t0)
		if target == nil {
			sp.status, sp.outcome = http.StatusServiceUnavailable, outcomeDenied
			rt.m.noNodes.Inc()
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "no usable fleet member for %q", sp.grammar)
			return
		}

		t0 = time.Now()
		winner := target
		var status int
		var hdr http.Header
		var respBody []byte
		var legNS int64
		var err error
		if rt.opt.Hedge {
			winner, status, hdr, respBody, legNS, err =
				rt.hedgedForward(ctx, target, rt.pickBackup(key, tried, target), path, body, trace, tried)
		} else {
			status, hdr, respBody, err = rt.roundTrip(ctx, target, http.MethodPost, path, body, trace)
			legNS = time.Since(t0).Nanoseconds()
		}
		sp.addSince(phaseForward, t0)

		wait := time.Duration(0)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				sp.status, sp.outcome = http.StatusGatewayTimeout, outcomeTimeout
				httpError(w, http.StatusGatewayTimeout, "request deadline exhausted forwarding to %s", winner.name)
				return
			}
			if errors.Is(err, errResponseTooLarge) {
				sp.status, sp.outcome = http.StatusBadGateway, outcomeDenied
				httpError(w, http.StatusBadGateway, "node %s answered more than %d bytes", winner.name, rt.opt.MaxBodyBytes)
				return
			}
			winner.noteForwardFailure(time.Now(), true)
			tried[winner] = true
		case status == http.StatusTooManyRequests:
			// Backpressure: the node is healthy, the queue is full. Wait as
			// asked and re-offer (the same node stays eligible). No latency
			// observation either — a shed answers instantly, and letting it
			// into the EWMA would make an overloaded node look fast.
			winner.br.success()
			wait = retryAfter(hdr)
		case retryableStatus(status):
			winner.noteForwardFailure(time.Now(), false)
			tried[winner] = true
			wait = retryAfter(hdr)
		default:
			winner.br.success()
			if status == http.StatusOK {
				// The gray detector compares members on work they all do:
				// successful parses only, measured on the winning leg alone.
				winner.latency.Observe(float64(legNS))
			}
			if winner != target {
				sp.outcome = outcomeHedged
			}
			sp.status = status
			relay(w, status, hdr, respBody)
			return
		}

		if attempt >= rt.opt.MaxRetries {
			sp.status, sp.outcome = http.StatusBadGateway, outcomeDenied
			httpError(w, http.StatusBadGateway, "exhausted %d forward attempts for %q", attempt+1, sp.grammar)
			return
		}
		rt.m.retries.Inc()
		sp.retries++
		t0 = time.Now()
		ok := rt.backoff(ctx, attempt, wait)
		sp.addSince(phaseRetry, t0)
		if !ok {
			sp.status, sp.outcome = http.StatusGatewayTimeout, outcomeTimeout
			httpError(w, http.StatusGatewayTimeout, "request deadline exhausted retrying %q", sp.grammar)
			return
		}
	}
}

// pickTarget returns the best-ranked usable member not yet tried this
// request (falling back to the best usable one even if tried — a 429
// round may have freed its queue).
func (rt *Router) pickTarget(key uint64, tried map[*member]bool) *member {
	usable, _ := rt.candidatesFor(key)
	for _, m := range usable {
		if !tried[m] {
			return m
		}
	}
	if len(usable) > 0 {
		return usable[0]
	}
	return nil
}

// AdminNodeResult is one member's verdict in an admin fanout.
type AdminNodeResult struct {
	Node   string `json:"node"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	Body   string `json:"body,omitempty"`
}

// AdminFanoutResponse is the router's admin-mutation answer: per-node
// outcomes. 200 iff every member journaled the mutation; any miss is a
// 502 with the detail — and a divergence the prober will keep
// surfacing on /healthz until the lagging node catches up or is
// mutated again.
type AdminFanoutResponse struct {
	OK    bool              `json:"ok"`
	Nodes []AdminNodeResult `json:"nodes"`
}

// handleAdmin fans a control-plane mutation out to every member —
// including unready ones (a draining node still journals, and skipping
// it would guarantee divergence on restart).
func (rt *Router) handleAdmin(w http.ResponseWriter, r *http.Request) {
	sp := rt.beginSpan(w, r)
	defer rt.recordSpan(sp)
	sp.grammar = "-admin-"
	body, ok := rt.readBody(w, r, sp)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opt.RequestTimeout)
	defer cancel()
	trace := telemetry.TraceIDString(sp.id)

	resp := AdminFanoutResponse{OK: true}
	results := make([]AdminNodeResult, len(rt.members))
	var wg sync.WaitGroup
	for i, m := range rt.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			status, _, b, err := rt.roundTrip(ctx, m, http.MethodPost, "/v1/admin/grammars", body, trace)
			res := AdminNodeResult{Node: m.name, Status: status}
			if err != nil {
				res.Error = err.Error()
			} else if status != http.StatusOK {
				res.Body = string(b)
			}
			results[i] = res
		}(i, m)
	}
	wg.Wait()
	for _, res := range results {
		if res.Error != "" || res.Status != http.StatusOK {
			resp.OK = false
		}
		resp.Nodes = append(resp.Nodes, res)
	}
	code := http.StatusOK
	if !resp.OK {
		code = http.StatusBadGateway
	}
	// Mutations change placement identities: refresh the registry view
	// now instead of waiting out a probe interval.
	rt.probeGrammars()
	sp.status = code
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// probeGrammars refreshes every member's registry view (used right
// after an admin fanout; the periodic prober does this too).
func (rt *Router) probeGrammars() {
	var wg sync.WaitGroup
	for _, m := range rt.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			if gs, err := fetchGrammars(rt.client, m.base, rt.opt.ProbeTimeout); err == nil {
				m.grammars.Store(&gs)
			}
		}(m)
	}
	wg.Wait()
	rt.refreshConvergence()
}
