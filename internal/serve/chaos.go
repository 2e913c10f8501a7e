package serve

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"aspen/internal/arch"
	"aspen/internal/stream"
	"aspen/internal/verify"
)

// Recovery layer. The fabric is imperfect (see internal/arch/fault.go):
// transient upsets silently corrupt a run, and banks die outright. The
// service turns both into at-most-latency artifacts by exploiting the
// machine's determinism: requests checkpoint on clean progress, buffer
// the bytes written since the last checkpoint, and when corruption is
// detected they roll back and replay on what is modeled as a freshly
// placed context. Detection is oracle-free: nothing in this path reads
// the injector's fired signal — a verify.Guard judges every checkpoint
// window from redundant execution (DMR/TMR on disjoint banks),
// invariant scrubbing, and hardware-announced bank loss alone, and the
// checkpoints themselves carry integrity seals so a corrupted snapshot
// is refused rather than replayed. Every accepted answer is therefore
// the verdict of an execution the detectors judged fault-free —
// byte-identical to a run on perfect hardware (the chaos e2e suite
// asserts exactly that, using the injector only as test-side ground
// truth).
//
// Repeated failure escalates instead of looping: replay attempts back
// off exponentially with jitter, a request that exhausts its attempts
// answers 503, and a per-grammar circuit breaker opens after
// consecutive exhaustions so a poisoned tenant sheds load for a
// cooldown instead of burning its contexts. Permanent bank losses
// additionally lower the tenant's scheduler width to its surviving
// capacity (never below one): the service degrades, it does not die.

// Chaos defaults.
const (
	DefaultCheckpointBytes  = 64 << 10
	DefaultMaxAttempts      = 5
	DefaultBackoffBase      = 2 * time.Millisecond
	DefaultBackoffCap       = 250 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 2 * time.Second
)

// ChaosOptions enables fault injection and configures the recovery
// machinery. A nil *ChaosOptions in Options disables the whole layer:
// requests take the unguarded parse path with zero added work.
type ChaosOptions struct {
	// FaultRate is the per-state-activation probability of a transient
	// fault (bit flip or stuck-at). 0 still arms the machinery — bank
	// kills are detected and recovered — without transient faults.
	FaultRate float64
	// FaultSeed makes the fault sequence reproducible.
	FaultSeed int64
	// CheckpointBytes is how much clean progress accumulates between
	// checkpoints; it bounds both the replay buffer and the work lost
	// to one fault (0 = DefaultCheckpointBytes).
	CheckpointBytes int
	// MaxAttempts bounds replay attempts per detected fault before the
	// request fails with 503 (0 = DefaultMaxAttempts).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the exponential backoff between
	// replay attempts (0 = defaults). Jitter is applied on top.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is how many consecutive recovery exhaustions
	// open the grammar's circuit breaker (0 = default; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds load before
	// letting one probe request through (0 = default).
	BreakerCooldown time.Duration
	// GrayRate is the per-activation probability of an injected latency
	// stall — the gray-failure fault: the node stays alive, ready, and
	// correct, just slow, which is exactly what the fleet's latency
	// EWMAs (and nothing else) should catch. 0 disables.
	GrayRate float64
	// GrayDelay is the stall applied when a gray fault fires.
	GrayDelay time.Duration
	// Verify selects the oracle-free corruption detector guarded parses
	// run under (off | scrub | dmr | tmr). The zero value is
	// verify.ModeOff — detection then rests on hardware-announced bank
	// loss alone. It is deliberately not defaulted higher: dmr/tmr
	// replicas occupy real fabric banks and shrink the worker pool (see
	// registry.go), a cost the operator must opt into.
	Verify verify.Mode
}

// verifyModeOf is the detection mode a chaos config implies (ModeOff
// for a disarmed layer).
func verifyModeOf(c *ChaosOptions) verify.Mode {
	if c == nil {
		return verify.ModeOff
	}
	return c.Verify
}

func (c *ChaosOptions) withDefaults() ChaosOptions {
	out := *c
	if out.CheckpointBytes <= 0 {
		out.CheckpointBytes = DefaultCheckpointBytes
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = DefaultMaxAttempts
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = DefaultBackoffBase
	}
	if out.BackoffCap <= 0 {
		out.BackoffCap = DefaultBackoffCap
	}
	if out.BreakerThreshold == 0 {
		out.BreakerThreshold = DefaultBreakerThreshold
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = DefaultBreakerCooldown
	}
	return out
}

// Failure modes the handler maps to 503.
var (
	errRecoveryExhausted = errors.New("serve: parse could not complete on the degraded fabric (replay attempts exhausted)")
	errCheckpointCorrupt = errors.New("serve: recovery checkpoint failed its integrity check")
	errBreakerOpen       = errors.New("serve: circuit breaker open")
)

// parserUnit is one pooled guarded-execution context: a verify.Guard
// fanning writes across its replica parsers (each wired to its own
// deterministic injector on its own bank sub-range), plus the bytes
// written since the last clean checkpoint (the replay buffer — the
// checkpoints themselves live inside the Guard). Units are per-request
// via sync.Pool, so the injectors' single-goroutine contract holds. The
// injectors are held only to mark attempt boundaries (StartRun) — the
// detection path never reads them.
type parserUnit struct {
	det    *verify.Guard
	injs   []*arch.Injector
	replay []byte
	rng    uint64 // backoff jitter; per-unit so attempts stay reproducible
}

func (u *parserUnit) nextRand() uint64 {
	u.rng += 0x9e3779b97f4a7c15
	z := u.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// startAttempt marks an attempt boundary on every replica's injector
// (re-placing the unit onto the current fabric generation).
func (u *parserUnit) startAttempt() {
	for _, inj := range u.injs {
		inj.StartRun()
	}
}

// traceVerify emits a detection trace event when tracing is configured.
func (g *grammarEntry) traceVerify(event string) {
	if g.trace == nil {
		return
	}
	g.trace.Emit(map[string]any{
		"event":   event,
		"grammar": g.name,
		"mode":    g.verifyMode().String(),
	})
}

// backoff sleeps before replay attempt n (1-based): exponential from
// BackoffBase, capped at BackoffCap, with ±half jitter so concurrent
// recoveries don't stampede the fabric in lockstep. Honors ctx.
func (g *grammarEntry) backoff(ctx context.Context, u *parserUnit, attempt int) error {
	d := g.chaos.BackoffBase << (attempt - 1)
	if d > g.chaos.BackoffCap || d <= 0 {
		d = g.chaos.BackoffCap
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(u.nextRand()%uint64(half+1))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// recover rolls u back to its last clean checkpoint and replays the
// buffered bytes until an attempt the detectors judge uncorrupted,
// backing off between attempts. With andClose set the replay also
// re-runs the stream close, and a successful recovery returns the final
// outcome (done=true). done=true with inputErr set means a clean replay
// surfaced a genuine document error that the corrupted pass had masked.
// sysErr is errRecoveryExhausted, errCheckpointCorrupt (the snapshot
// itself failed its integrity seal — there is nothing sound to replay
// from), or a context error.
func (g *grammarEntry) recover(ctx context.Context, u *parserUnit, andClose bool) (out stream.Outcome, done bool, inputErr, sysErr error) {
	for attempt := 1; attempt <= g.chaos.MaxAttempts; attempt++ {
		g.m.retries.Inc()
		if err := g.backoff(ctx, u, attempt); err != nil {
			return stream.Outcome{}, false, nil, err
		}
		if err := u.det.Restore(); err != nil {
			g.m.checkpointCorrupt.Inc()
			return stream.Outcome{}, false, nil, errCheckpointCorrupt
		}
		u.startAttempt()
		verdict := verify.Clean
		var werr error
		if len(u.replay) > 0 {
			verdict, werr = u.det.Write(u.replay)
		}
		if verdict == verify.Corrupt {
			continue
		}
		if werr != nil {
			// Clean replay, real document error: conclude the parse.
			_, out, _ := u.det.Close()
			g.m.recoveries.Inc()
			return out, true, werr, nil
		}
		if !andClose {
			g.m.recoveries.Inc()
			return stream.Outcome{}, false, nil, nil
		}
		cv, out, cerr := u.det.Close()
		if cv == verify.Corrupt {
			continue
		}
		g.m.recoveries.Inc()
		return out, true, cerr, nil
	}
	g.m.recoveryExhausted.Inc()
	return stream.Outcome{}, false, nil, errRecoveryExhausted
}

// parseGuarded is the chaos-aware request path. With the layer disabled
// (Options.Chaos nil) it delegates straight to the unguarded parse —
// the alloc regression test pins that this adds nothing to the
// steady-state budget. Otherwise it streams the body through a guarded
// unit: checkpoint on clean progress, judge every window with the
// unit's verify.Guard (never the injector), roll back and replay on a
// Corrupt verdict. retries reports how many replay attempts the request
// consumed (0 on an untroubled parse). sp attributes time to the span
// phases — read, parse (replica execution + vote), verify (checkpoint
// seals), retry (rollback + backoff + replay) — and receives the
// Guard's per-request verdict tallies; nil disables all of it.
func (g *grammarEntry) parseGuarded(ctx context.Context, body io.Reader, sp *span) (out stream.Outcome, retries int, inputErr, sysErr error) {
	if g.chaos == nil {
		out, inputErr, sysErr = g.parse(ctx, body, sp)
		return out, 0, inputErr, sysErr
	}
	// Guarded parses run the simulator: replica detection hangs off
	// core.ExecHooks, which the engine deliberately doesn't carry.
	allowed, probe := g.breaker.allow(time.Now())
	if !allowed {
		g.m.breakerDenied.Inc()
		return stream.Outcome{}, 0, nil, errBreakerOpen
	}
	// A half-open probe must be resolved on every exit path. Success and
	// recovery exhaustion resolve it below; any other exit — a request
	// deadline at the loop head, a transport read error, a context error
	// surfaced mid-recovery — says nothing about fabric health, so it
	// releases the probe claim instead. Without this the probing flag
	// would stay set and the breaker would answer 503 until restart.
	resolved := false
	if probe {
		defer func() {
			if !resolved {
				g.breaker.probeAbort()
			}
		}()
	}
	succeed := func() {
		resolved = true
		g.breaker.success()
	}

	u := g.units.Get().(*parserUnit)
	defer g.units.Put(u)
	u.det.Reset()
	if sp != nil {
		// The Guard tallies verdicts per request (Reset cleared them);
		// copy the counts out on every exit path.
		defer func() {
			_, arb, cor := u.det.WindowCounts()
			sp.arbit, sp.corrupt = int32(arb), int32(cor)
		}()
	}
	u.startAttempt()
	u.replay = u.replay[:0]
	t0 := sp.now()
	u.det.Checkpoint()
	sp.addSince(phaseVerify, t0)
	g.m.checkpoints.Inc()

	bufp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bufp)
	buf := *bufp

	fail := func(err error) (stream.Outcome, int, error, error) {
		if errors.Is(err, errRecoveryExhausted) || errors.Is(err, errCheckpointCorrupt) {
			resolved = true
			g.breaker.failure(time.Now())
		}
		return stream.Outcome{}, retries, nil, err
	}

	for {
		if err := ctx.Err(); err != nil {
			return stream.Outcome{}, retries, nil, err
		}
		t0 = sp.now()
		n, rerr := body.Read(buf)
		sp.addSince(phaseRead, t0)
		// Feed the parser in checkpoint-window-sized pieces: a single
		// transport read can exceed CheckpointBytes (the copy buffer is
		// 32 KiB), and the replay window — replay cost, and with it the
		// odds that a replay attempt re-faults — must stay bounded by
		// the cadence, not by however much the transport handed over.
		// The cadence is also the detection granularity: the Guard
		// judges every piece.
		for off := 0; off < n; {
			end := off + (g.chaos.CheckpointBytes - len(u.replay))
			if end > n {
				end = n
			}
			chunk := buf[off:end]
			off = end
			u.replay = append(u.replay, chunk...)
			t0 = sp.now()
			verdict, werr := u.det.Write(chunk)
			sp.addSince(phaseParse, t0)
			switch {
			case verdict == verify.Corrupt:
				g.traceVerify("serve.corruption_detected")
				t0 = sp.now()
				rout, done, rierr, rserr := g.recover(ctx, u, false)
				sp.addSince(phaseRetry, t0)
				if rserr != nil {
					return fail(rserr)
				}
				if done {
					succeed()
					return rout, retries, rierr, nil
				}
				retries++
			case werr != nil:
				// Genuine document error (replicated identically on every
				// replica, so the verdict is not Corrupt): same contract
				// as the unguarded path — partial outcome plus the input
				// error.
				_, o, _ := u.det.Close()
				succeed()
				return o, retries, werr, nil
			case verdict == verify.Arbitrated:
				g.traceVerify("serve.vote_arbitrated")
			}
			if len(u.replay) >= g.chaos.CheckpointBytes {
				t0 = sp.now()
				u.det.Checkpoint()
				sp.addSince(phaseVerify, t0)
				u.replay = u.replay[:0]
				g.m.checkpoints.Inc()
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return stream.Outcome{}, retries, nil, rerr
		}
	}

	t0 = sp.now()
	cv, o, cerr := u.det.Close()
	sp.addSince(phaseParse, t0)
	if cv == verify.Corrupt {
		g.traceVerify("serve.corruption_detected")
		t0 = sp.now()
		rout, _, rierr, rserr := g.recover(ctx, u, true)
		sp.addSince(phaseRetry, t0)
		retries++
		if rserr != nil {
			return fail(rserr)
		}
		succeed()
		return rout, retries, rierr, nil
	}
	if cv == verify.Arbitrated {
		g.traceVerify("serve.vote_arbitrated")
	}
	succeed()
	return o, retries, cerr, nil
}

// breaker is a per-grammar circuit breaker over recovery exhaustion:
// closed (serving) → open (shedding) after threshold consecutive
// exhausted requests → half-open (one probe) after the cooldown. A
// disabled breaker (threshold < 0) never opens.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openUntil time.Time
	probing   bool

	m *grammarMetrics
}

// allow reports whether a request may proceed, and whether it proceeds
// as the half-open probe. A probe caller owns the probing claim and
// must resolve it — success, failure, or probeAbort — on every path.
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	if b.threshold < 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true, false
	}
	if now.Before(b.openUntil) {
		return false, false
	}
	if b.probing {
		return false, false // one half-open probe at a time
	}
	b.probing = true
	return true, true
}

func (b *breaker) success() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if !b.openUntil.IsZero() {
		b.openUntil = time.Time{}
		b.m.breakerOpen.SetInt(0)
	}
}

// probeAbort releases the half-open probe claim when the probe request
// exited without a verdict on fabric health (request deadline,
// transport error, cancellation mid-recovery). The breaker is neither
// closed nor re-opened: the next request simply becomes the probe.
func (b *breaker) probeAbort() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

func (b *breaker) failure(now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.probing || b.failures >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
		b.probing = false
		b.failures = 0
		b.m.breakerOpens.Inc()
		b.m.breakerOpen.SetInt(1)
	}
}

// applyBankLoss lowers g's scheduler width to the contexts its
// surviving banks back, never below one (CapacityFor's floor). Nothing
// is evicted: requests running above the new width finish, and the
// scheduler grants g nothing until it is back under.
func (s *Server) applyBankLoss(g *grammarEntry) {
	c := s.fabric.CapacityInRange(g.bankLo, g.bankHi, g.unitBanks)
	s.sched.shrink(g.flow, min(c.Contexts, g.workers))
}

// effectiveWorkers is the concurrency width the surviving fabric backs.
func (g *grammarEntry) effectiveWorkers() int { return int(g.flow.width.Load()) }

// Fabric exposes the server's shared bank pool (for chaos drivers and
// tests).
func (s *Server) Fabric() *arch.Fabric { return s.fabric }

// KillBank permanently retires one fabric bank, narrowing whichever
// grammar owned it. It reports whether the bank was alive. In-flight
// executions guarded by an injector detect the loss and recover onto
// surviving capacity.
func (s *Server) KillBank(bank int) bool {
	if !s.fabric.KillBank(bank) {
		return false
	}
	s.m.degraded.SetInt(1)
	ts := s.tenants.Load()
	for _, name := range ts.names {
		s.applyBankLoss(ts.byName[name])
	}
	return true
}

// KillNextBank retires the lowest-numbered live bank and returns its
// index, or -1 when the fabric is already fully dead. It is the
// deterministic kill schedule cmd/aspend's -kill-bank-after drives.
func (s *Server) KillNextBank() int {
	for b := 0; b < s.fabric.Total(); b++ {
		if s.fabric.Alive(b) && s.KillBank(b) {
			return b
		}
	}
	return -1
}
