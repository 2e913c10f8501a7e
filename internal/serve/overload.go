package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/store"
)

// Scheduling and overload control. One structure, the weighted-fair
// scheduler (wfq), admits every parse. Each tenant's flow carries three
// numbers: running (requests granted and not yet released), width (the
// execution contexts its surviving banks back; bank loss lowers it in
// place) and room (workers + QueueDepth: the most requests the tenant
// may hold, running plus waiting). One acquire answers each request:
//
//   - admit: the flow is under its width, the server under the AIMD
//     limit, and no eligible request waits ahead — the grant is made
//     inline, allocation-free;
//   - wait: the request parks in the flow's FIFO; dispatch serves the
//     lowest-virtual-time flow that is under its width;
//   - shed: the flow already holds room requests — 429, counted on
//     shed_total{reason="queue"}.
//
// A waiting request holds nothing, so one tenant's backlog never idles
// a context a neighbour could run on. The rest of this file is the
// control around that scheduler, driven by the machine cost model the
// upload admission analysis (internal/admit) proves:
//
//   - aimd: an adaptive global concurrency limit over parse execution.
//     Observed parse latency above the target halves the limit
//     (multiplicative decrease); a window of good samples raises it by
//     one (additive increase), back up to the fabric ceiling (the sum
//     of per-tenant worker widths). Decisions are a pure function of
//     the observation stream — seeded tests replay them exactly.
//
//   - wfq weighting: each grant charges the tenant's flow cost/weight
//     in virtual time, so a flooding tenant queues behind its own
//     backlog while a quiet tenant's occasional request dispatches
//     almost immediately. Weights default to the machine's proven cost
//     (StackBound × engine TableBytes — see costOf), so by default every
//     tenant gets an equal request-rate share; an operator can re-weight
//     a tenant at runtime via the journaled admin "weight" op.
//
//   - deadline shed + brownout: a request whose predicted cost (the
//     tenant's observed ns/byte EWMA × Content-Length) exceeds its
//     remaining deadline is answered 429+Retry-After before it reaches
//     the scheduler instead of burning a context to time out mid-parse.
//     When the limiter collapses to its floor and stays there, the
//     optional brownout ladder (Options.Brownout) sheds whole tenants,
//     lowest effective weight first, until the limiter recovers.

// Overload defaults.
const (
	// DefaultLatencyTarget is the parse-latency target the AIMD limiter
	// steers toward when Options.LatencyTarget is zero.
	DefaultLatencyTarget = 500 * time.Millisecond
	// defaultStackBound stands in for built-in grammars, whose stack
	// depth is provisioned rather than proven at admission.
	defaultStackBound = 8
	// deadlineMinSamples gates deadline shedding on a warm ns/byte
	// estimate: a cold EWMA must not reject anything.
	deadlineMinSamples = 8
	// aimdDecreaseFactor is the multiplicative-decrease factor.
	aimdDecreaseFactor = 0.5
)

// aimdEvent reports what one observation did to the limit.
type aimdEvent int

const (
	aimdNone     aimdEvent = iota
	aimdIncrease           // additive increase fired
	aimdDecrease           // multiplicative decrease fired
	aimdCollapse           // a bad sample arrived with the limit already at floor
)

// aimd is the adaptive concurrency limiter. It is deliberately
// minimal: one mutex, integer-ish state, and a decision rule that
// depends only on the sequence of observed latencies — identical
// observation streams produce identical limit trajectories, which the
// determinism tests pin.
type aimd struct {
	mu       sync.Mutex
	targetNS int64
	floor    float64
	ceiling  float64
	limit    float64
	good     int
}

func newAIMD(target time.Duration, ceiling int) *aimd {
	if target <= 0 {
		target = DefaultLatencyTarget
	}
	c := float64(ceiling)
	if c < 1 {
		c = 1
	}
	return &aimd{targetNS: target.Nanoseconds(), floor: 1, ceiling: c, limit: c}
}

// observe folds one parse latency into the limit. A latency above
// target halves the limit (and reports collapse when already at floor);
// a window of limit-many good samples raises it by one toward the
// ceiling.
func (a *aimd) observe(latencyNS int64) aimdEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	if latencyNS > a.targetNS {
		a.good = 0
		if a.limit <= a.floor {
			return aimdCollapse
		}
		a.limit *= aimdDecreaseFactor
		if a.limit < a.floor {
			a.limit = a.floor
		}
		return aimdDecrease
	}
	a.good++
	if float64(a.good) >= a.limit {
		a.good = 0
		if a.limit < a.ceiling {
			a.limit++
			if a.limit > a.ceiling {
				a.limit = a.ceiling
			}
			return aimdIncrease
		}
	}
	return aimdNone
}

// limitNow is the integer concurrency ceiling currently in force.
func (a *aimd) limitNow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int(math.Floor(a.limit))
	if n < 1 {
		n = 1
	}
	return n
}

// current returns the raw (fractional) limit for the gauge.
func (a *aimd) current() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limit
}

// setCeiling re-derives the ceiling after a registry mutation changed
// the fabric partition. A limiter sitting at its (old) ceiling —
// uncollapsed — follows the new one directly; a collapsed limiter is
// only clamped down, and otherwise climbs back via additive increase.
func (a *aimd) setCeiling(ceiling int) {
	c := float64(ceiling)
	if c < 1 {
		c = 1
	}
	a.mu.Lock()
	if a.limit >= a.ceiling || a.limit > c {
		a.limit = c
	}
	a.ceiling = c
	a.mu.Unlock()
}

// errRoomFull is acquire's shed verdict: the tenant already holds
// workers+QueueDepth requests, running plus waiting.
var errRoomFull = errors.New("serve: tenant admission room full")

// wfqWaiter is one parked acquire: grant closes ch; cancellation
// removes the waiter under the scheduler lock (granted disambiguates
// the race between the two).
type wfqWaiter struct {
	ch      chan struct{}
	granted bool
}

// wfqFlow is one tenant's scheduling state. room bounds the requests
// it may hold (running plus waiting) and width how many may run.
// cost/weight give the virtual-time charge per grant; vt accumulates
// it. A flow whose vt fell behind while idle is clamped up to the
// global virtual time when it next contends — idleness banks no credit
// (the classic WFQ discipline; without the clamp a tenant could sleep,
// then burst past everyone at its stale vt).
type wfqFlow struct {
	g    *grammarEntry
	room int
	// width is written only under wfq.mu (shrink) and read lock-free by
	// effectiveWorkers. It starts at the provisioned worker count and
	// only shrinks, never below 1.
	width atomic.Int64

	// Guarded by wfq.mu.
	vt      float64
	running int
	waiters []*wfqWaiter
}

func newFlow(g *grammarEntry, width, room int) *wfqFlow {
	f := &wfqFlow{g: g, room: room}
	f.width.Store(int64(width))
	return f
}

// charge is the virtual time one grant costs this flow.
func (f *wfqFlow) charge() float64 {
	w := float64(f.g.weight.Load())
	if w < 1 {
		w = 1
	}
	return float64(f.g.cost) / w
}

// underWidth reports whether f may take another context.
func (f *wfqFlow) underWidth() bool { return int64(f.running) < f.width.Load() }

// wfq is the server-global admission scheduler: at most
// limiter.limitNow() requests run in total and at most width per flow;
// waiting flows are served lowest virtual time first.
type wfq struct {
	limiter *aimd

	mu       sync.Mutex
	virt     float64
	inflight int
	active   []*wfqFlow // flows with ≥1 waiter
}

func newWFQ(limiter *aimd) *wfq { return &wfq{limiter: limiter} }

// grantLocked charges f and takes one context. No idle clamp here: a
// flow that stays backlogged must keep its accumulated charge between
// grants — that accumulation IS the weighting (clamping on every grant
// would reset the race each round and serve flows round-robin
// regardless of weight). The clamp lives at flow entry instead
// (enterLocked), where idleness must not bank credit.
func (q *wfq) grantLocked(f *wfqFlow) {
	f.vt += f.charge()
	if f.vt > q.virt {
		q.virt = f.vt
	}
	f.running++
	q.inflight++
}

// enterLocked clamps a flow's virtual time up to the global clock as
// it (re)enters contention: a tenant that slept earns no credit to
// burst past backlogged peers.
func (q *wfq) enterLocked(f *wfqFlow) {
	if f.vt < q.virt {
		f.vt = q.virt
	}
}

// grantNowLocked is the inline grant: f runs now when none of its own
// requests waits ahead, it is under its width, and the server is under
// the limit once eligible waiters elsewhere have been served (a limit
// raised since the last release is noticed here). It allocates nothing.
func (q *wfq) grantNowLocked(f *wfqFlow) bool {
	limit := q.limiter.limitNow()
	if len(q.active) > 0 {
		q.dispatchLocked(limit)
	}
	if len(f.waiters) > 0 || !f.underWidth() || q.inflight >= limit {
		return false
	}
	q.enterLocked(f)
	q.grantLocked(f)
	return true
}

// tryAcquire is acquire without the wait: it grants inline or reports
// false, queuing nothing. The admission bench drives it, since it never
// blocks.
func (q *wfq) tryAcquire(f *wfqFlow) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.grantNowLocked(f)
}

// acquire answers one request for f: shed (errRoomFull) when f already
// holds room requests, admit inline when it can run now, and otherwise
// wait in f's FIFO until dispatch serves it or ctx ends. A nil return
// owes exactly one release(f).
func (q *wfq) acquire(ctx context.Context, f *wfqFlow) error {
	q.mu.Lock()
	if f.running+len(f.waiters) >= f.room {
		q.mu.Unlock()
		return errRoomFull
	}
	if q.grantNowLocked(f) {
		q.mu.Unlock()
		return nil
	}
	w := &wfqWaiter{ch: make(chan struct{})}
	if len(f.waiters) == 0 {
		q.enterLocked(f)
		q.active = append(q.active, f)
	}
	f.waiters = append(f.waiters, w)
	f.g.m.overloadQueue.SetInt(int64(len(f.waiters)))
	q.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		defer q.mu.Unlock()
		if w.granted {
			// The grant raced the cancellation: the context is ours, so
			// hand it back properly (someone else may be waiting on it).
			q.releaseLocked(f)
			return ctx.Err()
		}
		for i, pw := range f.waiters {
			if pw == w {
				f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
				break
			}
		}
		if len(f.waiters) == 0 {
			q.deactivateLocked(f)
		}
		f.g.m.overloadQueue.SetInt(int64(len(f.waiters)))
		return ctx.Err()
	}
}

// release returns f's context and dispatches as many waiters as the
// current limit allows (the limit may have moved while the context was
// held — in either direction).
func (q *wfq) release(f *wfqFlow) {
	q.mu.Lock()
	q.releaseLocked(f)
	q.mu.Unlock()
}

func (q *wfq) releaseLocked(f *wfqFlow) {
	f.running--
	q.inflight--
	q.dispatchLocked(q.limiter.limitNow())
}

// dispatchLocked grants contexts while the server is under limit, each
// to the lowest-virtual-time waiting flow that is under its own width;
// a flow at its width keeps its waiters and holds nothing. Tenant
// counts are small (a handful of flows), so the min scan is cheaper
// than a heap would be.
func (q *wfq) dispatchLocked(limit int) {
	for q.inflight < limit {
		var f *wfqFlow
		for _, af := range q.active {
			if af.underWidth() && (f == nil || af.vt < f.vt) {
				f = af
			}
		}
		if f == nil {
			return
		}
		w := f.waiters[0]
		f.waiters = f.waiters[1:]
		if len(f.waiters) == 0 {
			q.deactivateLocked(f)
		}
		f.g.m.overloadQueue.SetInt(int64(len(f.waiters)))
		q.grantLocked(f)
		w.granted = true
		close(w.ch)
	}
}

func (q *wfq) deactivateLocked(f *wfqFlow) {
	for i, af := range q.active {
		if af == f {
			q.active = append(q.active[:i], q.active[i+1:]...)
			return
		}
	}
}

// shrink lowers f's width to width (floor 1; a wider value is ignored,
// since banks never revive) and republishes workers_effective under the
// same lock, so concurrent bank kills leave the gauge equal to the
// width. Requests already running above the new width finish normally;
// dispatch grants f nothing until running drops below it.
func (q *wfq) shrink(f *wfqFlow, width int) {
	if width < 1 {
		width = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if int64(width) < f.width.Load() {
		f.width.Store(int64(width))
	}
	f.g.m.workersEffective.SetInt(f.width.Load())
}

// held is f's running plus waiting requests, the backlog Retry-After
// prices.
func (q *wfq) held(f *wfqFlow) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return f.running + len(f.waiters)
}

// costOf is the machine cost heuristic the weights and brownout ranks
// rest on: the admission-proven stack bound (a provisioned stand-in
// for built-ins) times the lowered table footprint in KB. It is a
// relative expense proxy, not a cycle count — Glück's linear-time
// result makes actual per-request cost ≈ machine cost × input bytes,
// and the ns/byte EWMA measures the proportionality constant live.
func costOf(g *grammarEntry) int64 {
	sb := g.lang.StackBound
	if sb <= 0 {
		sb = defaultStackBound
	}
	tableKB := g.prog.TableBytes() >> 10
	if tableKB < 1 {
		tableKB = 1
	}
	c := int64(sb) * int64(tableKB)
	if c < 1 {
		c = 1
	}
	return c
}

// applyOverloadPlan recomputes the derived overload state after a
// snapshot (re)build: the AIMD ceiling (total worker width across
// tenants) and the brownout shed ranks. Rank 0 sheds first: lowest
// effective weight (weight/cost), ties broken toward the more
// expensive machine, then by name for determinism. The highest rank —
// the most protected tenant — is never shed (the ladder is clamped
// below it).
func (s *Server) applyOverloadPlan(ts *tenantSet) {
	ceiling := 0
	for _, n := range ts.names {
		ceiling += ts.byName[n].workers
	}
	s.limiter.setCeiling(ceiling)
	s.m.limitCurrent.Set(s.limiter.current())

	ranked := make([]*grammarEntry, 0, len(ts.names))
	for _, n := range ts.names {
		ranked = append(ranked, ts.byName[n])
	}
	sort.Slice(ranked, func(i, j int) bool {
		gi, gj := ranked[i], ranked[j]
		ei := float64(gi.weight.Load()) / float64(gi.cost)
		ej := float64(gj.weight.Load()) / float64(gj.cost)
		if ei != ej {
			return ei < ej
		}
		if gi.cost != gj.cost {
			return gi.cost > gj.cost
		}
		return gi.name < gj.name
	})
	for i, g := range ranked {
		g.shedRank.Store(int32(i))
	}
	// An existing ladder level deeper than the new tenant count would
	// shed everyone; clamp it.
	if max := int32(len(ts.names) - 1); s.brownoutLevel.Load() > max {
		s.brownoutLevel.Store(max)
	}
}

// overloadCheck is the shedding decision made before the scheduler:
// brownout first (cheapest — two atomic loads), then the deadline test.
// It returns the shed reason, or "" to proceed. contentLength < 0 means
// the transport did not declare a length; such requests are never
// deadline-shed (no prediction basis).
func (s *Server) overloadCheck(g *grammarEntry, contentLength int64, remaining time.Duration) string {
	if s.opts.Brownout {
		if lvl := s.brownoutLevel.Load(); lvl > 0 && g.shedRank.Load() < lvl {
			return shedBrownout
		}
	}
	if contentLength > 0 && g.nsPerByte.Samples() >= deadlineMinSamples {
		if predicted := g.nsPerByte.Value() * float64(contentLength); predicted > float64(remaining.Nanoseconds()) {
			return shedDeadline
		}
	}
	return ""
}

// shed reasons (shed_total{reason=} label values and trace fields).
const (
	shedQueue    = "queue"    // the tenant holds workers+QueueDepth requests already
	shedDeadline = "deadline" // predicted cost exceeds remaining deadline
	shedBrownout = "brownout" // brownout ladder shed the tenant
)

// shedReasons pre-registers the label vocabulary.
var shedReasons = []string{shedQueue, shedDeadline, shedBrownout}

// observeParse feeds one completed whole-document parse back into the
// control loops: the AIMD limiter (and through it the brownout
// ladder), and the tenant's ns/byte predictor. Durable-session chunks
// are deliberately excluded — their latency measures checkpoint
// persistence, not parse throughput.
func (s *Server) observeParse(g *grammarEntry, parseNS int64, bytes int) {
	switch s.limiter.observe(parseNS) {
	case aimdCollapse:
		if s.opts.Brownout {
			ts := s.tenants.Load()
			if lvl := s.brownoutLevel.Load(); lvl < int32(len(ts.names)-1) {
				s.brownoutLevel.Store(lvl + 1)
			}
		}
	case aimdIncrease:
		if lvl := s.brownoutLevel.Load(); lvl > 0 {
			s.brownoutLevel.Store(lvl - 1)
		}
	}
	s.m.limitCurrent.Set(s.limiter.current())
	if bytes > 0 {
		g.nsPerByte.Observe(float64(parseNS) / float64(bytes))
	}
}

// ErrWeightRange rejects a weight override below 1.
var ErrWeightRange = errors.New("serve: weight must be a positive integer")

// SetWeight overrides a loaded grammar's fair-share weight at runtime
// (journaled, so the override survives restarts). It takes effect on
// the next grant — flows read the weight atomically per charge.
func (s *Server) SetWeight(name string, weight int) error {
	if weight < 1 {
		return ErrWeightRange
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.draining.Load() {
		return ErrDraining
	}
	ts := s.tenants.Load()
	g, ok := ts.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrGrammarUnknown, name)
	}
	if err := s.journalAppend(store.Record{Op: store.OpWeight, Name: name, Weight: weight}); err != nil {
		return err
	}
	s.weights[name] = weight
	g.weight.Store(int64(weight))
	s.applyOverloadPlan(ts)
	return nil
}

// BrownoutLevel reports the current brownout ladder level (0 = no
// tenant shed). Exposed for tests and the smoke scripts.
func (s *Server) BrownoutLevel() int { return int(s.brownoutLevel.Load()) }

// BenchAdmitCycle drives one complete admission decision — snapshot
// lookup, shed checks, and the scheduler's inline grant — and
// immediately undoes it. It exists so internal/bench can pin the
// decision overhead (ns and allocs per request) without standing up
// HTTP.
func (s *Server) BenchAdmitCycle(name string, contentLength int64) error {
	g, _, denial := s.admitRequest(name)
	if g == nil {
		return errors.New("serve: bench admission denied: " + denial.msg)
	}
	defer s.inflight.Done()
	defer g.inflight.Done()
	if reason := s.overloadCheck(g, contentLength, s.opts.RequestTimeout); reason != "" {
		return errors.New("serve: bench admission shed: " + reason)
	}
	if !s.sched.tryAcquire(g.flow) {
		return errors.New("serve: bench admission found the scheduler saturated")
	}
	s.sched.release(g.flow)
	return nil
}
