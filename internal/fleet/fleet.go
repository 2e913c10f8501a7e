// Package fleet is the ASPEN fleet router: a stateless front tier that
// places grammars and durable parse sessions across N aspend nodes and
// keeps answering while nodes die, drain, and come back.
//
// Placement is a consistent-hash ring keyed by grammar identity — the
// compiled machine's fingerprint once any node has reported one (the
// compiler is deterministic, so every converged node agrees), the
// grammar name until then. Durable sessions fold the session ID into
// the key, so one grammar's sessions spread across the fleet while
// each individual session stays sticky to its owner.
//
// Health is two layers. A prober polls every member's /readyz (a node
// flips unready at SIGTERM before its drain starts, and during hitless
// swap retirement) and /v1/grammars (for fingerprints and registry
// convergence). Independently, each member has a circuit breaker fed
// by forwarding failures, so a node that dies between probes stops
// receiving traffic after one connection error, not after the prober
// notices. Backpressure (429) is never a failure — the router honors
// Retry-After and re-sends; a node shedding load by design is healthy.
//
// Session failover is a file transfer, built on the sealed
// fingerprint-stamped checkpoints every durable session persists: the
// router caches each session's latest checkpoint image — fetched from
// the owner after the owner acknowledged the chunk but before the
// router relays that ack to the client, so the cache is never behind
// any state the client believes is durable — and when the owner dies
// it ships the image to the next ranked node and resends the unacked
// chunk there. The client sees one slow request, then byte-identical
// output from the replacement.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/telemetry"
)

// Defaults for Options fields left zero.
const (
	DefaultProbeInterval    = 250 * time.Millisecond
	DefaultProbeTimeout     = 2 * time.Second
	DefaultFailThreshold    = 2
	DefaultRequestTimeout   = 30 * time.Second
	DefaultMaxBodyBytes     = int64(64 << 20)
	DefaultMaxRetries       = 3
	DefaultRetryBackoff     = 50 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 2 * time.Second
	DefaultVNodes           = 64
	DefaultSessionIdleTTL   = 15 * time.Minute
	DefaultGrayFactor       = 3.0
	DefaultGrayMinSamples   = 16
	// DefaultHedgeDelay is the hedge trigger until the forward-phase
	// histogram is warm enough for a p95-derived delay.
	DefaultHedgeDelay = 50 * time.Millisecond
	// hedgeMinSamples gates the p95-derived delay on a warm histogram.
	hedgeMinSamples = 50
)

// Options configures a Router. Nodes is required; everything else has
// a sensible default.
type Options struct {
	// Nodes are the aspend members, as host:port or http://host:port.
	Nodes []string
	// Registry receives the router's metrics (a fresh one when nil).
	Registry *telemetry.Registry

	// ProbeInterval/ProbeTimeout drive the /readyz + /v1/grammars
	// prober; FailThreshold consecutive probe transport errors mark a
	// member down.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int

	// RequestTimeout bounds one client request end to end, retries and
	// failover included. MaxBodyBytes caps the buffered request body
	// (bodies are buffered so retries can re-send them).
	RequestTimeout time.Duration
	MaxBodyBytes   int64

	// MaxRetries bounds forward attempts beyond the first (0 = the
	// default, negative = no retries at all);
	// RetryBackoff is the base of the exponential backoff+jitter
	// between attempts (429 Retry-After overrides it).
	MaxRetries   int
	RetryBackoff time.Duration

	// BreakerThreshold consecutive forwarding failures open a member's
	// circuit breaker for BreakerCooldown.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// VNodes is each member's virtual-point count on the placement ring.
	VNodes int

	// GrayFactor demotes a ready member to last-resort placement when
	// its successful-forward latency EWMA exceeds GrayFactor × the
	// fastest ready member's (0 = DefaultGrayFactor). GrayMinSamples
	// forwards must be observed on both sides before the comparison
	// means anything (0 = DefaultGrayMinSamples).
	GrayFactor     float64
	GrayMinSamples int

	// Hedge arms hedged requests for idempotent whole-document parses:
	// when the primary node has not answered within the hedge delay
	// (p95 of observed forward latency, DefaultHedgeDelay until warm),
	// the same request is fired at the next-ranked node, the first
	// answer wins, and the loser is canceled. Durable-session chunks
	// are never hedged — replaying a chunk at two nodes would double
	// its side effects.
	Hedge bool

	// SessionIdleTTL reaps router session state (sticky placement plus
	// cached checkpoint image) untouched for this long. Only the
	// router's memory is reclaimed — the node-side durable checkpoint
	// stays, so a returning client resumes while its owner node lives.
	SessionIdleTTL time.Duration

	// Client overrides the outbound HTTP client (tests).
	Client *http.Client

	// FlightSize/SlowThreshold size the router's flight recorder.
	FlightSize    int
	SlowThreshold time.Duration
}

func (o *Options) withDefaults() error {
	if len(o.Nodes) == 0 {
		return fmt.Errorf("fleet: no nodes configured")
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = DefaultFailThreshold
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0 // negative = explicitly no retries
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.GrayFactor <= 1 {
		o.GrayFactor = DefaultGrayFactor
	}
	if o.GrayMinSamples <= 0 {
		o.GrayMinSamples = DefaultGrayMinSamples
	}
	if o.SessionIdleTTL <= 0 {
		o.SessionIdleTTL = DefaultSessionIdleTTL
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return nil
}

// Router is the fleet front tier. Construct with New, serve Handler(),
// stop with Close.
type Router struct {
	opt     Options
	members []*member
	byName  map[string]*member
	ring    *ring
	client  *http.Client
	reg     *telemetry.Registry
	m       routerMetrics
	flight  *telemetry.FlightRecorder
	mux     *http.ServeMux

	sessions sessionTable

	// hedgeNS is the cached hedge-trigger delay, refreshed from the
	// forward-phase p95 at probe ticks (0 until warm — readers fall
	// back to DefaultHedgeDelay).
	hedgeNS atomic.Int64

	// convMu orders convergence verdicts with their gauge writes (see
	// refreshConvergence).
	convMu sync.Mutex

	traceBase uint64
	idSeq     atomic.Uint64

	stop   chan struct{}
	probed sync.WaitGroup
}

// New builds a Router over opt.Nodes and starts its health prober.
func New(opt Options) (*Router, error) {
	if err := opt.withDefaults(); err != nil {
		return nil, err
	}
	rt := &Router{
		opt:    opt,
		byName: make(map[string]*member, len(opt.Nodes)),
		client: opt.Client,
		reg:    opt.Registry,
		m:      newRouterMetrics(opt.Registry),
		stop:   make(chan struct{}),
	}
	for _, addr := range opt.Nodes {
		m := newMember(addr, opt.Registry)
		m.br.threshold = opt.BreakerThreshold
		m.br.cooldown = opt.BreakerCooldown
		if _, dup := rt.byName[m.name]; dup {
			return nil, fmt.Errorf("fleet: duplicate node %q", m.name)
		}
		rt.byName[m.name] = m
		rt.members = append(rt.members, m)
	}
	rt.ring = newRing(rt.members, opt.VNodes)
	rt.flight = telemetry.NewFlightRecorder(opt.FlightSize, opt.FlightSize/4,
		int64(opt.SlowThreshold), phaseNames)
	rt.sessions.init(&rt.m)
	rt.traceBase = uint64(time.Now().UnixNano())

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/parse/{grammar}", rt.handleParse)
	rt.mux.HandleFunc("GET /v1/grammars", rt.handleGrammars)
	rt.mux.HandleFunc("GET /v1/admin/grammars", rt.handleGrammars)
	rt.mux.HandleFunc("POST /v1/admin/grammars", rt.handleAdmin)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleHealth) // the router is ready iff it is healthy
	rt.mux.Handle("GET /v1/debug/requests", rt.flight)
	telemetry.Routes(rt.mux, rt.reg)

	rt.probeAll() // one synchronous round so the first request sees real states
	rt.probed.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Handler is the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Flight exposes the router's flight recorder (tests).
func (rt *Router) Flight() *telemetry.FlightRecorder { return rt.flight }

// Close stops the health prober. In-flight forwards finish on their
// own deadlines.
func (rt *Router) Close() {
	close(rt.stop)
	rt.probed.Wait()
}

func (rt *Router) probeLoop() {
	defer rt.probed.Done()
	t := time.NewTicker(rt.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
			rt.sessions.sweep(time.Now(), rt.opt.SessionIdleTTL)
		}
	}
}

// probeAll runs one concurrent health round and refreshes the
// ready-count and divergence gauges.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, m := range rt.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			m.probe(rt.client, rt.opt.ProbeTimeout, rt.opt.FailThreshold)
		}(m)
	}
	wg.Wait()
	ready := 0
	for _, m := range rt.members {
		if m.state.Load() == stateReady {
			ready++
		}
	}
	rt.m.ready.SetInt(int64(ready))
	rt.refreshConvergence()
	rt.refreshGray()
	rt.refreshHedgeDelay()
}

// refreshGray recomputes each member's gray verdict against the fleet:
// the reference is the fastest ready member's latency EWMA (with a
// warm sample count), and anyone slower than GrayFactor × that is
// demoted. The fastest member can never be gray by construction, so
// demotion always leaves at least one undemoted candidate while
// latencies diverge.
func (rt *Router) refreshGray() {
	min := 0.0
	have := false
	for _, m := range rt.members {
		if m.state.Load() != stateReady || m.latency.Samples() < int64(rt.opt.GrayMinSamples) {
			continue
		}
		if v := m.latency.Value(); !have || v < min {
			min, have = v, true
		}
	}
	for _, m := range rt.members {
		g := have &&
			m.latency.Samples() >= int64(rt.opt.GrayMinSamples) &&
			m.latency.Value() > rt.opt.GrayFactor*min
		m.setGray(g)
	}
}

// refreshHedgeDelay re-derives the hedge trigger from the observed
// forward-phase p95 once the histogram is warm.
func (rt *Router) refreshHedgeDelay() {
	hv := rt.m.phaseNS[phaseForward].Value()
	if hv.Count < hedgeMinSamples {
		return
	}
	p95 := int64(hv.Quantile(0.95))
	if lo := int64(time.Millisecond); p95 < lo {
		p95 = lo
	}
	if hi := rt.opt.RequestTimeout.Nanoseconds() / 4; hi > 0 && p95 > hi {
		p95 = hi
	}
	rt.hedgeNS.Store(p95)
}

// hedgeDelay is the current hedge trigger.
func (rt *Router) hedgeDelay() time.Duration {
	if ns := rt.hedgeNS.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return DefaultHedgeDelay
}

// refreshConvergence computes the registry-convergence verdict and
// publishes it on fleet_registry_diverged in one step. Member views
// land as each probe answers, so every reader of the verdict — the
// probe rounds and /healthz alike — goes through here, serialized so
// the last verdict computed is the last one written: the gauge never
// lags a verdict /healthz has already served.
func (rt *Router) refreshConvergence() bool {
	rt.convMu.Lock()
	defer rt.convMu.Unlock()
	ok := rt.registryConverged()
	if ok {
		rt.m.diverged.SetInt(0)
	} else {
		rt.m.diverged.SetInt(1)
	}
	return ok
}

// registryConverged reports whether every ready member with a polled
// registry view agrees on it (names and fingerprints both).
func (rt *Router) registryConverged() bool {
	var ref []string
	have := false
	for _, m := range rt.members {
		if m.state.Load() != stateReady {
			continue
		}
		gs := m.grammars.Load()
		if gs == nil {
			continue
		}
		if !have {
			ref, have = *gs, true
			continue
		}
		if !equalStrings(ref, *gs) {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fingerprintFor resolves the placement identity of a grammar: the
// machine fingerprint any member has reported for it, else the name
// itself. On a converged fleet every member reports the same value, so
// "any member" is deterministic where it matters.
func (rt *Router) fingerprintFor(grammar string) string {
	for _, m := range rt.members {
		if gs := m.grammars.Load(); gs != nil {
			if fp := fingerprintOf(*gs, grammar); fp != "" {
				return fp
			}
		}
	}
	return grammar
}

// candidatesFor ranks the fleet for a placement key and filters to
// currently usable members, demoting gray (slow-but-ready) members
// behind every healthy one — a stable partition, so ring order is
// preserved within each class and gray capacity is still reachable
// when nothing better remains. The full ranking (ignoring health) is
// returned too — failover wants "who owned this before it died".
func (rt *Router) candidatesFor(key uint64) (usable, ranked []*member) {
	ranked = rt.ring.ranked(key, make([]*member, 0, len(rt.members)))
	now := time.Now()
	usable = make([]*member, 0, len(ranked))
	var grays []*member
	for _, m := range ranked {
		if !m.usable(now) {
			continue
		}
		if m.gray.Load() {
			grays = append(grays, m)
			continue
		}
		usable = append(usable, m)
	}
	usable = append(usable, grays...)
	return usable, ranked
}

// MemberHealth is one member's state in the router /healthz body.
type MemberHealth struct {
	Node     string `json:"node"`
	State    string `json:"state"`
	Breaker  string `json:"breaker"` // closed | open
	Grammars int    `json:"grammars"`
	LastErr  string `json:"last_error,omitempty"`
}

// RouterHealth is the router /healthz body: per-member states, the
// registry-convergence verdict across ready members, and the sticky
// session placements (the chaos tests read Sessions to find which node
// to kill).
type RouterHealth struct {
	Status            string            `json:"status"` // ok | degraded | down
	Nodes             []MemberHealth    `json:"nodes"`
	ReadyNodes        int               `json:"ready_nodes"`
	RegistryConverged bool              `json:"registry_converged"`
	Sessions          map[string]string `json:"sessions,omitempty"` // grammar/id → owner node
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	h := RouterHealth{RegistryConverged: rt.refreshConvergence()}
	for _, m := range rt.members {
		mh := MemberHealth{Node: m.name, State: stateName(m.state.Load()), Breaker: "closed"}
		if m.br.open(now) {
			mh.Breaker = "open"
		}
		if gs := m.grammars.Load(); gs != nil {
			mh.Grammars = len(*gs)
		}
		if e := m.lastErr.Load(); e != nil {
			mh.LastErr = *e
		}
		if mh.State == "ready" {
			h.ReadyNodes++
		}
		h.Nodes = append(h.Nodes, mh)
	}
	sort.Slice(h.Nodes, func(i, j int) bool { return h.Nodes[i].Node < h.Nodes[j].Node })
	h.Sessions = rt.sessions.placements()
	switch {
	case h.ReadyNodes == len(rt.members) && h.RegistryConverged:
		h.Status = "ok"
	case h.ReadyNodes > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	code := http.StatusOK
	if h.ReadyNodes == 0 {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(h)
}

// handleGrammars proxies the fleet registry view: the first ready
// member answers for everyone (divergence, if any, is a /healthz
// matter — this endpoint is "what can I parse").
func (rt *Router) handleGrammars(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	for _, m := range rt.members {
		if !m.usable(now) {
			continue
		}
		status, hdr, body, err := rt.roundTrip(r.Context(), m, http.MethodGet, "/v1/grammars", nil, "")
		if err != nil {
			// A dead client context (or the router's own body cap) is not
			// evidence against the node — charging it would let one expired
			// request mark the whole fleet down as the loop iterates.
			if r.Context().Err() == nil && !errors.Is(err, errResponseTooLarge) {
				m.noteForwardFailure(time.Now(), true)
			}
			continue
		}
		m.br.success()
		relay(w, status, hdr, body)
		return
	}
	httpError(w, http.StatusServiceUnavailable, "no fleet member is ready")
}

// timeoutCtx is the outbound-call deadline helper.
func timeoutCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
