package serve

import (
	"strconv"

	"aspen/internal/admit"
	"aspen/internal/telemetry"
)

// Request latency buckets in nanoseconds: 1 µs … ~4.3 s, ×4 per step.
var requestNSBuckets = telemetry.ExponentialBuckets(1e3, 4, 12)

// Phase latency buckets: 100 ns … ~6.7 s, ×4 per step. Phases start
// finer than whole requests — a checkpoint seal or a response encode is
// sub-microsecond work worth resolving.
var phaseNSBuckets = telemetry.ExponentialBuckets(100, 4, 14)

// errorCodes are the statuses pre-registered per grammar on
// serve_errors_total{grammar=...,code=...}. Codes outside this set (and
// errors with no routed grammar) fall back to the server-level series;
// see Server.countError.
var errorCodes = []int{400, 409, 410, 413, 422, 429, 500, 503, 504}

func errorCounters(reg *telemetry.Registry, labels ...string) map[int]*telemetry.Counter {
	m := make(map[int]*telemetry.Counter, len(errorCodes))
	for _, code := range errorCodes {
		kv := append(append([]string{}, labels...), "code", strconv.Itoa(code))
		m[code] = reg.Counter(telemetry.LabeledName("serve_errors_total", kv...),
			"non-2xx responses by status code")
	}
	return m
}

// countError attributes one non-2xx response to its grammar's
// serve_errors_total{code=...} series (the server-level series when
// routing never resolved a grammar, or for a code outside the
// pre-registered set). Pre-resolved counters keep the common paths
// allocation-free; the lazy fallback pays a registry lookup only on
// exotic codes.
func (s *Server) countError(g *grammarEntry, code int) {
	if g != nil {
		if c := g.m.errByCode[code]; c != nil {
			c.Inc()
			return
		}
	}
	if c := s.m.errByCode[code]; c != nil {
		c.Inc()
		return
	}
	s.reg.Counter(telemetry.LabeledName("serve_errors_total", "code", strconv.Itoa(code)),
		"non-2xx responses by status code").Inc()
}

// serviceMetrics are the global (grammar-independent) series. All are
// resolved once at construction so the request path touches atomics
// only.
type serviceMetrics struct {
	requests  *telemetry.Counter
	timeouts  *telemetry.Counter
	canceled  *telemetry.Counter
	drainDeny *telemetry.Counter
	compiles  *telemetry.Counter
	inflight  *telemetry.Gauge
	draining  *telemetry.Gauge
	degraded  *telemetry.Gauge
	requestNS *telemetry.Histogram

	// Overload-control series (overload.go): sheds by reason, and the
	// AIMD limit currently in force.
	shedTotal    map[string]*telemetry.Counter
	limitCurrent *telemetry.Gauge

	// Durable-control-plane series (admin.go, session.go, store wiring).
	// Registered unconditionally: flat zeros without -state-dir.
	journalAppends  *telemetry.Counter
	reloadSwaps     *telemetry.Counter
	ckptCorrupt     *telemetry.Counter
	journalReplay   *telemetry.Gauge
	journalCommitNS *telemetry.Histogram

	// Upload-admission verdicts (admin.go): admissions by format,
	// rejections by the check that fired. Pre-registered over the full
	// check/format vocabulary so a zero-rejection deployment still
	// exports every series.
	admitAdmitted map[string]*telemetry.Counter
	admitRejected map[string]*telemetry.Counter

	// errByCode counts non-2xx answers with no routed grammar (404
	// unknown grammar, 503 drain denial); see countError.
	errByCode map[int]*telemetry.Counter
}

func newServiceMetrics(reg *telemetry.Registry) serviceMetrics {
	return serviceMetrics{
		requests:  reg.Counter("serve_requests_total", "parse requests admitted past routing"),
		timeouts:  reg.Counter("serve_timeouts_total", "requests that exceeded the request deadline"),
		canceled:  reg.Counter("serve_canceled_total", "requests abandoned by the client"),
		drainDeny: reg.Counter("serve_drain_denied_total", "requests refused 503 while draining"),
		compiles:  reg.Counter("serve_compiles_total", "grammar→hDPDA compiles (startup only; flat at steady state)"),
		inflight:  reg.Gauge("serve_inflight", "requests currently holding a scheduler grant (parsing)"),
		draining:  reg.Gauge("serve_draining", "1 while Drain is in progress or complete"),
		degraded:  reg.Gauge("serve_degraded", "1 once any fabric bank has been lost"),
		requestNS: reg.Histogram("serve_request_ns", "end-to-end request latency (ns), queue wait included", requestNSBuckets),

		shedTotal: admitCounters(reg, "shed_total", "reason", shedReasons,
			"requests shed 429 by the overload layer, by reason"),
		limitCurrent: reg.Gauge("limit_current", "AIMD adaptive concurrency limit currently in force"),

		journalAppends:  reg.Counter("journal_appends_total", "registry mutation records fsync'd to the write-ahead journal"),
		reloadSwaps:     reg.Counter("reload_swaps_total", "atomic registry snapshot swaps (admin mutations and SIGHUP reloads)"),
		ckptCorrupt:     reg.Counter("checkpoint_store_corrupt_total", "session checkpoint images refused: stored ones failing their integrity seals or refused by restore (a swapped build), uploaded ones failing their seals or the trial restore"),
		journalReplay:   reg.Gauge("journal_replay_records", "journal records replayed at the last startup"),
		journalCommitNS: reg.Histogram("serve_journal_commit_ns", "write-ahead journal append+fsync latency (ns)", phaseNSBuckets),

		admitAdmitted: admitCounters(reg, "admit_admitted_total", "format",
			admit.Formats(), "tenant uploads admitted to the registry, by source format"),
		admitRejected: admitCounters(reg, "admit_rejected_total", "check",
			admit.Checks(), "tenant uploads rejected at admission, by the check that fired"),

		errByCode: errorCounters(reg),
	}
}

func admitCounters(reg *telemetry.Registry, name, label string, values []string, help string) map[string]*telemetry.Counter {
	m := make(map[string]*telemetry.Counter, len(values))
	for _, v := range values {
		m[v] = reg.Counter(telemetry.LabeledName(name, label, v), help)
	}
	return m
}

// countRejection attributes one admission rejection to the first
// diagnostic's check series.
func (s *Server) countRejection(rej *admit.Rejection) {
	check := "unknown"
	if len(rej.Diagnostics) > 0 {
		check = rej.Diagnostics[0].Check
	}
	if c := s.m.admitRejected[check]; c != nil {
		c.Inc()
		return
	}
	s.reg.Counter(telemetry.LabeledName("admit_rejected_total", "check", check),
		"tenant uploads rejected at admission, by the check that fired").Inc()
}

// grammarMetrics are the per-tenant, per-outcome series. The registry
// has no label dimension, so the grammar name is folded into the series
// name (sanitized), mirroring the bench tables' convention.
type grammarMetrics struct {
	requests  *telemetry.Counter
	accepted  *telemetry.Counter
	rejected  *telemetry.Counter // parse completed: input not in the language
	errors    *telemetry.Counter // input unlexable or machine fault
	bytes     *telemetry.Counter
	tokens    *telemetry.Counter
	requestNS *telemetry.Histogram

	// overloadQueue is this tenant's waiting-request count
	// (tenant_queue_depth{grammar=} — requests parked in the scheduler
	// for a grant).
	overloadQueue *telemetry.Gauge

	// Span-phase latency attribution (trace.go): one histogram per
	// lifecycle phase, serve_phase_ns{grammar=...,phase=...}. Resolved
	// once here so recording a span touches atomics only.
	phaseNS [numPhases]*telemetry.Histogram
	// errByCode counts this grammar's non-2xx answers on
	// serve_errors_total{grammar=...,code=...}.
	errByCode map[int]*telemetry.Counter

	// Recovery-layer series (chaos.go). Registered unconditionally —
	// flat zeros on a healthy fabric cost nothing and keep dashboards
	// stable across deployments with and without injection.
	faultFlips        *telemetry.Counter
	faultStuck        *telemetry.Counter
	faultKills        *telemetry.Counter
	faultDelays       *telemetry.Counter
	retries           *telemetry.Counter
	checkpoints       *telemetry.Counter
	recoveries        *telemetry.Counter
	recoveryExhausted *telemetry.Counter
	breakerOpens      *telemetry.Counter
	breakerDenied     *telemetry.Counter
	breakerOpen       *telemetry.Gauge
	workersEffective  *telemetry.Gauge

	// Oracle-free detection series (internal/verify). The fault_* series
	// above are injection-side ground truth (published by the injector
	// itself); these are what the detectors actually caught — the gap
	// between the two is the recall the bench tables grade.
	verifyDivergences *telemetry.Counter
	verifyVotes       *telemetry.Counter
	verifyScrubFail   *telemetry.Counter
	checkpointCorrupt *telemetry.Counter
	rejectedDepth     *telemetry.Counter
}

func newGrammarMetrics(reg *telemetry.Registry, grammar string) grammarMetrics {
	p := "serve_" + telemetry.SanitizeMetricName(grammar) + "_"
	var phaseNS [numPhases]*telemetry.Histogram
	for i := range phaseNS {
		phaseNS[i] = reg.Histogram(
			telemetry.LabeledName("serve_phase_ns", "grammar", grammar, "phase", phaseNames[i]),
			"request lifecycle phase latency (ns), attributed by the request span",
			phaseNSBuckets)
	}
	return grammarMetrics{
		phaseNS:   phaseNS,
		errByCode: errorCounters(reg, "grammar", grammar),
		requests:  reg.Counter(p+"requests_total", "parse requests for grammar "+grammar),
		accepted:  reg.Counter(p+"accepted_total", "inputs accepted by the "+grammar+" hDPDA"),
		rejected:  reg.Counter(p+"rejected_total", "inputs rejected (jam or non-accepting end state)"),
		errors:    reg.Counter(p+"errors_total", "inputs that failed before the machine answered (lex error, machine fault)"),
		bytes:     reg.Counter(p+"bytes_total", "request body bytes streamed into the parser"),
		tokens:    reg.Counter(p+"tokens_total", "tokens fed to the "+grammar+" hDPDA"),
		overloadQueue: reg.Gauge(telemetry.LabeledName("tenant_queue_depth", "grammar", grammar),
			"requests waiting in the scheduler for a grant"),
		requestNS: reg.Histogram(p+"request_ns", "per-request latency (ns) for grammar "+grammar, requestNSBuckets),

		faultFlips:        reg.Counter(p+"fault_flips_total", "injected active-state-vector bit flips"),
		faultStuck:        reg.Counter(p+"fault_stuck_total", "injected stuck-at stack-column faults"),
		faultKills:        reg.Counter(p+"fault_kills_total", "runs aborted by mid-run bank loss"),
		faultDelays:       reg.Counter(p+"fault_delays_total", "injected gray-failure latency stalls"),
		retries:           reg.Counter(p+"retries_total", "checkpoint replay attempts"),
		checkpoints:       reg.Counter(p+"checkpoints_total", "clean-progress checkpoints taken"),
		recoveries:        reg.Counter(p+"recoveries_total", "faulted runs recovered by replay"),
		recoveryExhausted: reg.Counter(p+"recovery_exhausted_total", "requests that failed after exhausting replay attempts"),
		breakerOpens:      reg.Counter(p+"breaker_opens_total", "circuit breaker open transitions"),
		breakerDenied:     reg.Counter(p+"breaker_denied_total", "requests shed by an open circuit breaker"),
		breakerOpen:       reg.Gauge(p+"breaker_open", "1 while the circuit breaker is open"),
		workersEffective:  reg.Gauge(p+"workers_effective", "scheduler width (concurrent requests) backed by surviving banks"),

		verifyDivergences: reg.Counter(p+"verify_divergences_total", "replica digest divergences with no majority (window rolled back)"),
		verifyVotes:       reg.Counter(p+"verify_votes_total", "TMR majority arbitrations (minority replica repaired in place)"),
		verifyScrubFail:   reg.Counter(p+"verify_scrub_failures_total", "invariant violations found by the scrubber"),
		checkpointCorrupt: reg.Counter(p+"checkpoint_corrupt_total", "recovery checkpoints rejected by their integrity seal"),
		rejectedDepth:     reg.Counter(p+"parse_rejected_depth_total", "inputs rejected 422 for exceeding the configured stack depth"),
	}
}
