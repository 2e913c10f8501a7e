// Package serve is the concurrent multi-tenant parsing service over the
// simulated bank fabric — the first consumer of the paper's headline
// claim that throughput comes from parallelism (§I, §IV-B: "hundreds of
// different DPDAs in parallel as any number of LLC SRAM arrays can be
// re-purposed"). A Server loads a set of named grammars, compiling each
// into an hDPDA and placing it onto banks, and then answers parse jobs
// over HTTP: POST /v1/parse/{grammar} streams the request body
// chunk-by-chunk straight into a stream.Parser, so an arbitrarily large
// document is parsed as it arrives, in the paper's MBs-to-GBs operating
// regime.
//
// Concurrency mirrors the architecture. The LLC contributes a fixed
// bank budget (arch.Config.FabricBanks); each grammar's machine
// occupies a measured number of banks per execution context; the fabric
// is partitioned across the loaded grammars and each grammar may run
// one request per context its share sustains (arch.CapacityFor).
// Service concurrency is therefore bank-level parallelism, not an
// arbitrary GOMAXPROCS-shaped pool. One weighted-fair scheduler
// (overload.go) enforces those widths, the server-wide adaptive limit,
// and each tenant's bounded waiting room in a single admit/wait/shed
// decision.
//
// The registry is dynamic. The loaded tenant set lives in an immutable
// snapshot behind an atomic pointer; admin mutations (add, remove,
// swap, reload — see admin.go) build replacement entries off to the
// side, journal the mutation to the durable store (when configured),
// and atomically publish the new snapshot. Requests in flight against a
// replaced entry finish on it; the old entry retires once they drain.
// With Options.Store set, every mutation is write-ahead journaled and a
// restarted server replays the journal to resume the same registry
// state — the crash-durability half of the control plane (see
// internal/store and DESIGN.md §9).
//
// Production machinery: a tenant holding its running width plus
// QueueDepth waiting requests is answered 429 + Retry-After instead of
// queueing without bound; every request
// carries a context deadline and honors client cancellation; parser and
// copy-buffer state is pooled with sync.Pool so the steady-state request
// path performs zero compiles and O(1) allocations (pinned by
// alloc_test.go); Drain stops admission and waits for in-flight work
// (wired to SIGTERM in cmd/aspend); and per-grammar/per-outcome metrics
// plus sampled request traces flow through the internal/telemetry
// registry, served on the same mux as the debug endpoints.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/admit"
	"aspen/internal/arch"
	"aspen/internal/lang"
	"aspen/internal/store"
	"aspen/internal/telemetry"
	"aspen/internal/verify"
)

// Defaults for the zero Options value.
const (
	DefaultQueueDepth     = 64
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxBodyBytes   = 64 << 20
	copyBufSize           = 32 << 10
)

// Options configures a Server. The zero value serves the five built-in
// languages on the paper's default fabric.
type Options struct {
	// Languages is the grammar set to load (nil = the four Table III
	// languages plus MiniC). Names are the URL path segment. With a
	// non-empty journal in Store, the journal's membership wins and
	// Languages only seeds the resolvable-name set.
	Languages []*lang.Language
	// Arch parameterizes the simulated fabric the per-grammar widths
	// are derived from (zero value = arch.DefaultConfig()).
	Arch arch.Config
	// QueueDepth bounds each grammar's waiting room — requests waiting
	// for the scheduler beyond the Workers that may run. A grammar
	// already holding Workers+QueueDepth requests answers 429 with
	// Retry-After (0 = DefaultQueueDepth, negative = 0: no waiting
	// room, admission requires a free context).
	QueueDepth int
	// Workers overrides the per-grammar concurrency width (0 = derived
	// from the grammar's fabric share; see Capacity accounting).
	Workers int
	// RequestTimeout bounds one request end-to-end, queue wait included
	// (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// MaxBodyBytes caps one request body (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Registry receives service metrics (nil = a fresh registry;
	// retrieve it with Server.Registry).
	Registry *telemetry.Registry
	// Trace, when non-nil, receives sampled per-request trace events.
	Trace telemetry.TraceSink
	// TraceSample emits every Nth request to Trace (0 with Trace set =
	// every request).
	TraceSample int
	// Chaos, when non-nil, arms fault injection and the
	// checkpoint/replay recovery layer (see ChaosOptions). nil keeps
	// the unguarded request path; bank kills still narrow the tenants.
	Chaos *ChaosOptions
	// Store, when non-nil, makes the control plane crash-durable:
	// registry mutations are write-ahead journaled before taking effect,
	// startup replays the journal (journal state overrides
	// Languages/Chaos.Verify when records exist), and durable parse
	// sessions persist checkpoints through Store.Checkpoints. The caller
	// keeps ownership: close the store after Drain.
	Store *store.Store
	// Resolver maps a grammar name to its definition for admin adds of
	// grammars not in the startup set and for journal replay (nil =
	// built-ins only, via ResolveBuiltin).
	Resolver func(name string) *lang.Language
	// FlightSize is the capacity of the flight recorder's recent ring —
	// the last N completed requests inspectable at /v1/debug/requests
	// (0 = telemetry.DefaultFlightSize). The notable (slow/error) ring is
	// sized to a quarter of it.
	FlightSize int
	// SlowThreshold is the latency at which a completed request is also
	// retained in the flight recorder's notable ring, surviving bursts of
	// healthy traffic (0 = telemetry.DefaultSlowNS).
	SlowThreshold time.Duration
	// LatencyTarget is the parse-latency target the AIMD concurrency
	// limiter steers toward (0 = DefaultLatencyTarget). Observed parse
	// latency above the target halves the global concurrency limit;
	// sustained good samples raise it back toward the fabric ceiling.
	LatencyTarget time.Duration
	// Brownout arms the degraded mode: when the limiter collapses to
	// its floor and bad samples keep arriving, whole tenants are shed
	// (429, lowest effective weight first) until the limiter recovers.
	// Off by default — shedding entire tenants is an operator decision.
	Brownout bool
}

// tenantSet is one immutable registry snapshot: the loaded grammars in
// registration order. Lookups load the current snapshot; mutations
// build a new set and atomically replace it, so readers never see a
// half-updated registry.
type tenantSet struct {
	byName map[string]*grammarEntry
	names  []string // registration order, for /v1/grammars
}

// Server is a loaded, ready-to-serve grammar registry plus its HTTP
// surface. Construct with New, mount Handler, stop with Drain.
type Server struct {
	opts    Options
	reg     *telemetry.Registry
	cfg     arch.Config
	tenants atomic.Pointer[tenantSet]
	mux     *http.ServeMux
	m       serviceMetrics
	fabric  *arch.Fabric
	st      *store.Store

	// Control-plane state: adminMu serializes mutations (the data plane
	// never takes it); known is every grammar name the server can
	// resolve to a definition, adminMu-guarded after New; weights holds
	// the journaled fair-share overrides by grammar name (adminMu-guarded
	// after New, applied to entries as they are built).
	adminMu sync.Mutex
	known   map[string]*lang.Language
	weights map[string]int

	// Scheduling and overload control (overload.go): the AIMD limiter,
	// the weighted-fair scheduler that admits every parse under it, and
	// the brownout ladder level (0 = nothing shed).
	limiter       *aimd
	sched         *wfq
	brownoutLevel atomic.Int32

	sessions sessionJar

	// drainMu orders in-flight registration against Drain and entry
	// retirement: requests register on the wait groups inside a read
	// section (admitRequest); Drain flips the flag and retireEntry
	// barriers on the write side, so every Add happens-before the
	// corresponding Wait and no request slips past a completed drain.
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup
	traceSeq atomic.Int64
	started  time.Time

	// Readiness, split from liveness for fleet routing (/readyz):
	// notReady is flipped by SetReady(false) — wired to SIGTERM in
	// cmd/aspend before Drain begins — and retiring counts in-progress
	// hitless-swap retirements, so a router stops placing new work on
	// this node before it starts refusing it. Liveness (/healthz) is
	// unaffected: an unready node still answers in-flight work.
	notReady atomic.Bool
	retiring atomic.Int32

	// Request-scoped tracing (trace.go): the flight recorder behind
	// /v1/debug/requests, and the trace-ID generator state.
	flight    *telemetry.FlightRecorder
	traceBase uint64
	idSeq     atomic.Uint64
}

// ResolveBuiltin maps a built-in grammar name (the four Table III
// languages plus MiniC) to its definition, nil if unknown. It is the
// default Options.Resolver and the name validator cmd/aspend uses.
func ResolveBuiltin(name string) *lang.Language {
	if l := lang.ByName(name); l != nil {
		return l
	}
	if name == "MiniC" {
		return lang.MiniC()
	}
	return nil
}

// New compiles and places every grammar, sizes the per-grammar widths
// from the fabric partition, and builds the HTTP surface. All
// compile work happens here — the request path performs none. With a
// durable store attached, a non-empty journal overrides the flag-derived
// membership and verify mode (the journal is the source of truth after
// the first boot); an empty journal is bootstrapped from them.
func New(opts Options) (*Server, error) {
	langs := opts.Languages
	if langs == nil {
		langs = append(lang.All(), lang.MiniC())
	}
	if len(langs) == 0 {
		return nil, fmt.Errorf("serve: no grammars to load")
	}
	cfg := opts.Arch
	if cfg == (arch.Config{}) {
		cfg = arch.DefaultConfig()
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	known := make(map[string]*lang.Language, len(langs))
	for _, l := range langs {
		known[l.Name] = l
	}
	// Journal replay: with recorded mutations, the journal's membership
	// and verify mode override the configured ones — flags describe the
	// first boot, the journal describes every boot since.
	replayed := false
	weights := map[string]int{}
	if opts.Store != nil && len(opts.Store.Replay.Records) > 0 {
		names, mode, uploads, wts, err := replayRegistry(opts.Store.Replay.Records)
		if err != nil {
			return nil, err
		}
		weights = wts
		langs = make([]*lang.Language, 0, len(names))
		for _, n := range names {
			l := uploads[n]
			if l == nil {
				l = known[n]
			}
			if l == nil {
				l = resolveWith(opts.Resolver, n)
			}
			if l == nil {
				return nil, fmt.Errorf("serve: journal names unresolvable grammar %q", n)
			}
			known[n] = l
			langs = append(langs, l)
		}
		if mode != "" {
			vm, perr := verify.ParseMode(mode)
			if perr != nil {
				return nil, fmt.Errorf("serve: journaled verify mode: %w", perr)
			}
			opts.Chaos = withVerifyMode(opts.Chaos, vm)
		}
		replayed = true
	}
	if opts.Chaos != nil {
		c := opts.Chaos.withDefaults()
		opts.Chaos = &c
	}
	s := &Server{
		opts:    opts,
		reg:     reg,
		cfg:     cfg,
		known:   known,
		weights: weights,
		m:       newServiceMetrics(reg),
		fabric:  arch.NewFabric(cfg.FabricBanksOrDefault()),
		st:      opts.Store,
		started: time.Now(),
		flight: telemetry.NewFlightRecorder(opts.FlightSize, opts.FlightSize/4,
			int64(opts.SlowThreshold), phaseNames),
	}
	s.limiter = newAIMD(opts.LatencyTarget, 1)
	s.sched = newWFQ(s.limiter)
	s.traceBase = uint64(s.started.UnixNano())
	s.fabric.EnableTelemetry(reg)
	if s.st != nil {
		s.m.journalReplay.SetInt(int64(len(s.st.Replay.Records)))
	}
	ts, err := s.buildTenantSet(langs)
	if err != nil {
		return nil, err
	}
	s.tenants.Store(ts)
	s.applyOverloadPlan(ts)
	// First boot with a durable store: seed the journal so a crash
	// before any mutation still replays to this exact registry.
	if s.st != nil && !replayed {
		for _, name := range ts.names {
			if err := s.journalAppend(store.Record{Op: store.OpAddGrammar, Name: name}); err != nil {
				return nil, fmt.Errorf("serve: bootstrap journal: %w", err)
			}
		}
		mode := verifyModeOf(s.opts.Chaos).String()
		if err := s.journalAppend(store.Record{Op: store.OpVerifyMode, Name: mode}); err != nil {
			return nil, fmt.Errorf("serve: bootstrap journal: %w", err)
		}
		if err := s.journalPartition(ts); err != nil {
			return nil, fmt.Errorf("serve: bootstrap journal: %w", err)
		}
	}
	s.mux = s.buildMux()
	return s, nil
}

// replayRegistry folds journaled mutations into the surviving
// membership (in add order), the last recorded verify mode, and the
// re-admitted tenant uploads. Replay is forgiving about redundant
// mutations — an add of a loaded grammar or a remove/swap of a missing
// one is a no-op, not an error — because the journal already survived
// CRC and sequence checks; only a final state the server cannot serve
// (empty registry, or an upload record that no longer admits) is fatal.
func replayRegistry(recs []store.Record) (names []string, mode string, uploads map[string]*lang.Language, weights map[string]int, err error) {
	loaded := make(map[string]bool)
	uploadRec := make(map[string]store.Record)
	weights = make(map[string]int)
	for _, r := range recs {
		switch r.Op {
		case store.OpAddGrammar:
			if !loaded[r.Name] {
				loaded[r.Name] = true
				names = append(names, r.Name)
			}
		case store.OpUpload:
			// An upload is an add whose definition travels in the record.
			// The latest upload wins the definition even across a
			// remove/re-upload cycle, matching the live known-set behavior.
			uploadRec[r.Name] = r
			if !loaded[r.Name] {
				loaded[r.Name] = true
				names = append(names, r.Name)
			}
		case store.OpRemoveGrammar:
			if loaded[r.Name] {
				delete(loaded, r.Name)
				for i, n := range names {
					if n == r.Name {
						names = append(names[:i], names[i+1:]...)
						break
					}
				}
			}
		case store.OpVerifyMode:
			mode = r.Name
		case store.OpWeight:
			// The last override per grammar wins; an override for a
			// later-removed grammar is kept — if the grammar comes back,
			// the operator's weight decision still stands.
			weights[r.Name] = r.Weight
		case store.OpSwapGrammar, store.OpPartition:
			// Swaps rebuild an entry without changing membership; the
			// partition is recomputed from membership on every boot (the
			// record exists for offline inspection and cross-checks).
		}
	}
	if len(names) == 0 {
		return nil, "", nil, nil, fmt.Errorf("serve: journal replays to an empty registry")
	}
	// Re-run the identical admission for every surviving upload.
	// Admission is deterministic, so this can only fail on version skew
	// (a checker grown stricter than the one that admitted the machine)
	// — surfaced as a boot error, never as a silently weaker machine.
	uploads = make(map[string]*lang.Language)
	for _, n := range names {
		r, ok := uploadRec[n]
		if !ok {
			continue
		}
		res, aerr := admit.Admit(r.Name, r.Format, r.Source, admit.Limits{
			MaxStates: r.MaxStates, MaxDepth: r.MaxDepth, MaxTableKB: r.MaxTableKB})
		if aerr != nil {
			return nil, "", nil, nil, fmt.Errorf("serve: journaled upload %q (%s) no longer admits: %w", n, r.Format, aerr)
		}
		uploads[n] = res.Language
	}
	return names, mode, uploads, weights, nil
}

func resolveWith(r func(string) *lang.Language, name string) *lang.Language {
	if r != nil {
		if l := r(name); l != nil {
			return l
		}
	}
	return ResolveBuiltin(name)
}

// withVerifyMode overlays a journaled verify mode onto the configured
// chaos options without mutating the caller's struct.
func withVerifyMode(c *ChaosOptions, vm verify.Mode) *ChaosOptions {
	if c == nil {
		if vm == verify.ModeOff {
			return nil
		}
		return &ChaosOptions{Verify: vm}
	}
	cp := *c
	cp.Verify = vm
	return &cp
}

// buildTenantSet compiles and places langs as a complete registry
// snapshot: every grammar gets an equal, contiguous bank share, and a
// width of one running request per context the share sustains. The
// range bounds let bank kills be attributed to their tenant. The last
// tenant absorbs the division remainder so every physical bank has an
// owner — an unowned bank's death would narrow no tenant and be
// invisible to injectors. With more grammars than banks (share clamped
// to 1), tenants past the fabric end get empty ranges: they still serve
// (CapacityFor floors the width at one) but own no physical banks, so
// kills never degrade them.
func (s *Server) buildTenantSet(langs []*lang.Language) (*tenantSet, error) {
	ts := &tenantSet{byName: make(map[string]*grammarEntry, len(langs))}
	share := s.cfg.FabricBanksOrDefault() / len(langs)
	if share < 1 {
		share = 1
	}
	for i, l := range langs {
		if _, dup := ts.byName[l.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate grammar %q", l.Name)
		}
		g, err := newGrammarEntry(s, l, share)
		if err != nil {
			return nil, fmt.Errorf("serve: grammar %s: %w", l.Name, err)
		}
		g.bankLo = i * share
		g.bankHi = g.bankLo + share
		if i == len(langs)-1 || g.bankHi > s.fabric.Total() {
			g.bankHi = s.fabric.Total()
		}
		if g.bankLo > g.bankHi {
			g.bankLo = g.bankHi
		}
		g.initChaos(s)
		ts.byName[l.Name] = g
		ts.names = append(ts.names, l.Name)
	}
	return ts, nil
}

// grammar returns the named entry from the current snapshot, nil if
// not loaded.
func (s *Server) grammar(name string) *grammarEntry {
	return s.tenants.Load().byName[name]
}

// tenantNames returns the current snapshot's registration order.
func (s *Server) tenantNames() []string { return s.tenants.Load().names }

// Registry returns the metrics registry the server reports into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Grammars describes every loaded grammar in registration order — the
// same payload /v1/grammars serves.
func (s *Server) Grammars() []GrammarInfo {
	ts := s.tenants.Load()
	infos := make([]GrammarInfo, 0, len(ts.names))
	for _, name := range ts.names {
		infos = append(infos, ts.byName[name].info(s.opts.QueueDepth))
	}
	return infos
}

// Handler returns the service mux: the /v1 API (including the admin
// surface), /healthz, and the telemetry debug endpoints (/metrics,
// /metrics.json, /debug/vars, /debug/pprof) on the same mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetReady flips the node's readiness signal (/readyz). cmd/aspend
// calls SetReady(false) the moment SIGTERM arrives — before Drain —
// so a health-checking router stops routing to this node while it can
// still answer; Drain itself also flips it as a backstop for embedders
// that never wire signals.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether the node is accepting new routed work: not
// marked unready, not draining, and not mid-retirement of a swapped
// entry (a brief unready blip during hitless swaps keeps a router from
// racing a retiring entry's drain barrier).
func (s *Server) Ready() bool {
	return !s.notReady.Load() && !s.draining.Load() && s.retiring.Load() == 0
}

// Drain stops admitting new requests (they get 503) and waits for every
// in-flight request to finish, or for ctx to expire. It is the
// service-level half of graceful shutdown; pair it with
// http.Server.Shutdown, which drains the connection level. Admin
// mutations race-free reject after Drain: the draining flag is checked
// under adminMu before any journal write, so a drained server never
// appends another record.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		// Take adminMu once so any mutation already journaling finishes
		// publishing before the drain proceeds; later mutations see the
		// flag and reject without touching the journal. The drainMu
		// write-section is the barrier against admission: after it, any
		// request still deciding observes the flag and rejects, so no
		// registration can race the Wait below.
		s.adminMu.Lock()
		s.drainMu.Lock()
		//lint:ignore SA2001 empty write-section is the barrier itself
		s.drainMu.Unlock()
		s.adminMu.Unlock()
	}
	s.m.draining.SetInt(1)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests still in flight")
	}
}
