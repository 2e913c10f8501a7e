package serve

import (
	"net/http"
	"time"

	"aspen/internal/telemetry"
)

// Request-scoped tracing. Every request — success or denial — gets a
// span: a trace ID (returned in the X-Aspen-Trace response header, so a
// user-reported failure is joinable to server-side evidence) plus
// monotonic per-phase timings accumulated as the request moves through
// the lifecycle. When the request completes, the span is folded into
// the per-grammar phase histograms (serve_phase_ns{grammar=...,
// phase=...}) and copied into the flight recorder, whose
// /v1/debug/requests endpoint answers "why was this one slow" after the
// fact. The span lives on the handler's stack and records into
// preallocated sinks, so tracing adds zero heap allocations to the
// steady-state parse path (pinned by alloc_test.go).
//
// Phases are attribution, not instrumentation of every function: they
// sum to ≤ the request total, and the remainder is unattributed
// handler/scheduler overhead. Under dmr/tmr the "parse" phase includes
// the redundant replica execution and the vote — redundancy is parse
// work here; "verify" is the window boundary work (checkpoint seals),
// and "retry" is rollback + backoff + replay after a Corrupt verdict.

// Span phases, in lifecycle order.
const (
	phaseQueue   = iota // waiting for the scheduler's grant (a shed never waits)
	phaseRead           // transport reads of the request body
	phaseParse          // lexing + machine execution (all replicas, incl. the vote)
	phaseVerify         // checkpoint/seal work at clean window boundaries
	phaseRetry          // rollback + backoff + replay after a Corrupt verdict
	phasePersist        // durable-session checkpoint load/save
	phaseRespond        // response encode
	phaseAdmit          // upload static analysis (admin path only)
	numPhases
)

// phaseNames indexes the phases for exposition (metric label values and
// flight-record JSON keys).
var phaseNames = []string{"queue", "read", "parse", "verify", "retry", "persist", "respond", "admit"}

// Outcome vocabulary. Constant strings: recording a span must not
// allocate, so outcomes are picked from this fixed set.
const (
	outcomeAccepted = "accepted"     // 200, input in the language
	outcomeRejected = "rejected"     // 200, input not in the language
	outcomeInputErr = "input_error"  // 200, input could not be tokenized
	outcomePartial  = "partial"      // 200, durable-session chunk acknowledged
	outcomeDepth    = "depth"        // 422, provisioned stack depth exceeded
	outcomeDenied   = "denied"       // 404/409/503: refused without a parse
	outcomeShed     = "shed"         // 429, shed by the scheduler (queue) or the overload checks (deadline/brownout)
	outcomeTimeout  = "timeout"      // 504, request deadline
	outcomeCanceled = "canceled"     // client went away (no response written)
	outcomeError    = "system_error" // transport/recovery failure
)

// span is one request's trace context. It is passed by pointer down the
// parse path; a nil *span disables all clock reads (the
// tracing-disabled baseline the overhead benchmark compares against).
type span struct {
	id    uint64
	start time.Time

	grammar string        // requested grammar name (set even when routing fails)
	g       *grammarEntry // routed tenant, nil when admission failed

	outcome string
	status  int
	bytes   int64
	retries int32
	arbit   int32
	corrupt int32

	phases [telemetry.MaxPhases]int64
}

// now is the traced clock read: zero cost when tracing is off (nil sp).
func (sp *span) now() time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// addSince accumulates time.Since(t0) into a phase. Nil-safe; pairs
// with now().
func (sp *span) addSince(ph int, t0 time.Time) {
	if sp == nil {
		return
	}
	sp.phases[ph] += time.Since(t0).Nanoseconds()
}

// add accumulates a measured duration into a phase.
func (sp *span) add(ph int, d time.Duration) {
	if sp == nil {
		return
	}
	sp.phases[ph] += d.Nanoseconds()
}

// TraceHeader is the response header carrying the request's trace ID.
const TraceHeader = "X-Aspen-Trace"

// nextTraceID derives a process-unique trace ID: a splitmix64 walk from
// a per-server time-seeded base, so IDs are unique within a server and
// almost surely across restarts.
func (s *Server) nextTraceID() uint64 {
	z := s.traceBase + s.idSeq.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 is the filter wildcard
	}
	return z
}

// beginSpan opens the request's span and stamps the trace header —
// before admission, so 404/429/503 denials carry it too. An inbound
// X-Aspen-Trace header (a fleet router forwarding a request it already
// traced) is reused instead of minting a fresh ID, so one trace ID
// correlates the router's flight-recorder entry with this node's.
func (s *Server) beginSpan(w http.ResponseWriter, r *http.Request) span {
	id := uint64(0)
	if h := r.Header.Get(TraceHeader); h != "" {
		if v, ok := telemetry.ParseTraceID(h); ok && v != 0 {
			id = v
		}
	}
	if id == 0 {
		id = s.nextTraceID()
	}
	sp := span{id: id, start: time.Now(), status: http.StatusOK, outcome: outcomeAccepted}
	w.Header().Set(TraceHeader, telemetry.TraceIDString(sp.id))
	return sp
}

// recordSpan completes the span: phase timings go to the routed
// grammar's histograms, and the whole record goes to the flight
// recorder. Allocation-free (alloc_test.go pins it alongside the parse
// path).
func (s *Server) recordSpan(sp *span) {
	total := time.Since(sp.start).Nanoseconds()
	if g := sp.g; g != nil {
		for i := 0; i < numPhases; i++ {
			if sp.phases[i] > 0 {
				g.m.phaseNS[i].ObserveInt(sp.phases[i])
			}
		}
	}
	rec := telemetry.RequestRecord{
		TraceID:        sp.id,
		UnixNS:         sp.start.UnixNano(),
		Grammar:        sp.grammar,
		Outcome:        sp.outcome,
		Status:         sp.status,
		Bytes:          sp.bytes,
		Retries:        sp.retries,
		Arbitrated:     sp.arbit,
		CorruptWindows: sp.corrupt,
		TotalNS:        total,
		Phases:         sp.phases,
	}
	s.flight.Record(&rec)
}

// Flight exposes the server's flight recorder (tests and embedding
// callers; HTTP callers use /v1/debug/requests).
func (s *Server) Flight() *telemetry.FlightRecorder { return s.flight }
