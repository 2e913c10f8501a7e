package serve

import (
	"sync"
	"sync/atomic"

	"aspen/internal/arch"
	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/stream"
	"aspen/internal/telemetry"
	"aspen/internal/verify"
)

// grammarEntry is one loaded tenant: the grammar compiled once into an
// hDPDA, placed onto banks to measure its footprint, plus the pooled
// execution state and scheduling structures every request for this
// grammar shares.
type grammarEntry struct {
	name string
	lang *lang.Language
	cm   *compile.Compiled
	cap  arch.Capacity

	// workers is the provisioned concurrency width (= cap.Contexts
	// unless overridden). The tenant's scheduler flow (overload.go)
	// enforces it: at most width requests run (width starts at workers
	// and shrinks with bank loss), and at most workers+QueueDepth are
	// held, running plus waiting.
	workers int

	// parsers pools reusable stream.Parser state. A Get either hands
	// back a previously warmed parser (Reset, zero compile work) or
	// constructs one against the already-compiled machine.
	parsers sync.Pool

	// prog is the lowered engine program every pooled parser runs on,
	// each on its own engine.Exec (DESIGN.md §11 says why serving is
	// single-lane). Guarded parses run the simulator instead (chaos.go).
	prog *engine.Program
	// bound is the tenant's lexer bound to cm's codes, shared by every
	// parser of both pools.
	bound *lexer.Bound

	// Lifecycle. Entries are immutable once published in a tenant
	// snapshot; a reload/swap builds a replacement off to the side and
	// retires this one. inflight counts requests currently executing
	// against this entry (the retire path waits for it).
	inflight sync.WaitGroup

	// Recovery layer (see chaos.go). bankLo/bankHi is this tenant's
	// contiguous share of the physical fabric; units pools guarded
	// detector contexts when chaos is armed.
	//
	// replicas is how many independent execution contexts one guarded
	// unit runs (verify.Mode.Replicas(): 1 unguarded/scrub, 2 DMR,
	// 3 TMR); unitBanks is the banks a unit therefore occupies. The
	// worker width is derived from unitBanks, so redundancy consumes
	// real fabric capacity — turning on TMR visibly shrinks the pool.
	fabric    *arch.Fabric
	bankLo    int
	bankHi    int
	replicas  int
	unitBanks int
	chaos     *ChaosOptions
	trace     telemetry.TraceSink
	units     sync.Pool
	unitSeq   atomic.Int64
	breaker   breaker

	// Overload scheduling (overload.go): the machine cost heuristic
	// (StackBound × TableKB, fixed at build), the runtime-overridable
	// fair-share weight, the brownout shed rank (recomputed on every
	// plan change), this tenant's WFQ flow, and the observed ns/byte
	// predictor the deadline shed multiplies against Content-Length.
	cost      int64
	weight    atomic.Int64
	shedRank  atomic.Int32
	flow      *wfqFlow
	nsPerByte telemetry.EWMA

	m grammarMetrics
}

// replicaBanks splits this tenant's bank range into g.replicas
// contiguous disjoint sub-ranges, one per redundant execution context —
// the placement discipline DMR/TMR rest on: a single physical upset (or
// bank kill) lands in at most one replica's silicon, so replicas cannot
// corrupt coherently.
func (g *grammarEntry) replicaBanks(i int) (lo, hi int) {
	span := g.bankHi - g.bankLo
	lo = g.bankLo + span*i/g.replicas
	hi = g.bankLo + span*(i+1)/g.replicas
	return lo, hi
}

// initChaos wires the recovery layer after the bank range is assigned:
// the fabric reference (always — bank kills narrow the tenant regardless),
// and, when chaos is armed, the guarded-unit pool and breaker. Each
// unit builds a verify.Guard whose replicas run on disjoint bank
// sub-ranges with decorrelated (but reproducible) injector streams; the
// injectors publish their own injected-fault counters — nothing in the
// serving path reads them back.
func (g *grammarEntry) initChaos(s *Server) {
	g.fabric = s.fabric
	g.trace = s.opts.Trace
	g.m.workersEffective.SetInt(int64(g.workers))
	g.chaos = s.opts.Chaos
	// An entry built after banks have already died (a reload/swap on a
	// degraded fabric) must start at its surviving capacity, not its
	// provisioned width — bank kills are permanent.
	if s.fabric.Live() < s.fabric.Total() {
		s.applyBankLoss(g)
	}
	if g.chaos == nil {
		return
	}
	g.breaker = breaker{
		threshold: g.chaos.BreakerThreshold,
		cooldown:  g.chaos.BreakerCooldown,
		m:         &g.m,
	}
	reg := s.reg
	g.units.New = func() any {
		seq := g.unitSeq.Add(1)
		u := &parserUnit{rng: uint64(g.chaos.FaultSeed)*0x9e3779b97f4a7c15 + uint64(seq)}
		det, err := verify.New(verify.Options{
			Mode:    g.chaos.Verify,
			Machine: g.cm.Machine,
			Metrics: verify.Metrics{
				Divergences:   g.m.verifyDivergences,
				Votes:         g.m.verifyVotes,
				ScrubFailures: g.m.verifyScrubFail,
			},
			NewReplica: func(i int, hooks *core.ExecHooks) (*stream.Parser, error) {
				lo, hi := g.replicaBanks(i)
				inj := arch.NewInjector(arch.FaultConfig{
					Rate:      g.chaos.FaultRate,
					Seed:      g.chaos.FaultSeed,
					Stream:    seq*int64(g.replicas) + int64(i),
					DelayRate: g.chaos.GrayRate,
					Delay:     g.chaos.GrayDelay,
				}, len(g.cm.Machine.States), g.fabric, lo, hi)
				inj.SetCounters(g.m.faultFlips, g.m.faultStuck, g.m.faultKills)
				inj.SetDelayCounter(g.m.faultDelays)
				u.injs = append(u.injs, inj)
				p := stream.NewParserBound(g.lang, g.cm, g.bound,
					core.NewExecution(g.cm.Machine, core.ExecOptions{Hooks: hooks, Faults: inj}))
				// Stream totals count the canonical replica only;
				// redundant work shows up as capacity (narrower pools)
				// and in the verify_* series, not as inflated token
				// throughput.
				if i == 0 {
					p.EnableTelemetry(reg)
				}
				return p, nil
			},
		})
		if err != nil {
			// Unreachable: the lexer was constructed at load time.
			panic("serve: " + g.name + ": " + err.Error())
		}
		u.det = det
		return u
	}
	g.units.Put(g.units.New())
}

// newGrammarEntry compiles and places l, derives the worker width from
// its share of the fabric, and warms one parser so the first request
// already runs the pooled path.
func newGrammarEntry(s *Server, l *lang.Language, fabricShare int) (*grammarEntry, error) {
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		return nil, err
	}
	prog, err := cm.Engine()
	if err != nil {
		return nil, err
	}
	s.m.compiles.Inc()
	// Bind the lexer now, once for every parser of the tenant; this also
	// warms lang.Language's lexer cache, which is built lazily without
	// locking and so must exist before concurrent requests.
	bound, err := stream.Bind(l, cm)
	if err != nil {
		return nil, err
	}
	sim, err := arch.New(cm.Machine, s.cfg)
	if err != nil {
		return nil, err
	}
	cap := arch.CapacityFor(fabricShare, sim.NumBanks())
	// Redundant execution is not free: a DMR/TMR unit occupies 2–3
	// execution contexts' worth of banks, so the worker width is derived
	// from the unit footprint, not the single-context one.
	replicas := 1
	if s.opts.Chaos != nil {
		replicas = s.opts.Chaos.Verify.Replicas()
	}
	unitBanks := cap.BanksPerContext * replicas
	workers := s.opts.Workers
	if workers <= 0 {
		workers = arch.CapacityFor(fabricShare, unitBanks).Contexts
	}
	g := &grammarEntry{
		name:      l.Name,
		lang:      l,
		cm:        cm,
		cap:       cap,
		prog:      prog,
		bound:     bound,
		replicas:  replicas,
		unitBanks: unitBanks,
		workers:   workers,
		m:         newGrammarMetrics(s.reg, l.Name),
	}
	// Overload plumbing: the default weight IS the cost — every tenant
	// then charges ~1 virtual unit per request (equal request-rate
	// shares) until an operator re-weights it.
	g.cost = costOf(g)
	w := g.cost
	if ov, ok := s.weights[l.Name]; ok {
		w = int64(ov)
	}
	g.weight.Store(w)
	g.flow = newFlow(g, workers, workers+s.opts.QueueDepth)
	g.parsers.New = func() any {
		p := stream.NewParserBound(g.lang, g.cm, g.bound, engine.NewExec(g.prog, engine.Options{}))
		p.EnableTelemetry(s.reg)
		return p
	}
	g.parsers.Put(g.parsers.New())
	return g, nil
}

// GrammarInfo is the /v1/grammars description of one loaded tenant.
type GrammarInfo struct {
	Name string `json:"name"`
	// Fingerprint is the compiled HDPDA's structural fingerprint
	// (16 hex digits). Compilation is deterministic, so every node that
	// compiles the same grammar reports the same value — the fleet
	// router hashes it for consistent placement and uses disagreement
	// between nodes as a registry-divergence signal.
	Fingerprint string `json:"fingerprint"`
	// Compiled machine shape (paper Tables III/IV).
	States        int `json:"states"`
	EpsilonStates int `json:"epsilonStates"`
	TokenTypes    int `json:"tokenTypes"`
	Productions   int `json:"productions"`
	// Fabric mapping: banks per execution context, this grammar's bank
	// share of the fabric, and the context count the share sustains.
	BanksPerContext int `json:"banksPerContext"`
	FabricShare     int `json:"fabricShare"`
	Contexts        int `json:"contexts"`
	OccupancyKB     int `json:"occupancyKB"`
	// Scheduling: concurrency width (as provisioned and as currently
	// backed by surviving banks) and the waiting room beyond it.
	Workers          int `json:"workers"`
	WorkersEffective int `json:"workersEffective"`
	QueueDepth       int `json:"queueDepth"`
	// Verification: the corruption-detection mode and the redundant
	// execution contexts each guarded unit consumes (reflected in
	// Workers — replicas eat fabric capacity).
	VerifyMode string `json:"verifyMode"`
	Replicas   int    `json:"replicas"`
	// EngineTableKB is the footprint of the lowered engine tables every
	// unguarded parse runs on.
	EngineTableKB int `json:"engineTableKB"`
	// Provenance of tenant-uploaded machines: the upload format and the
	// admission-proven stack depth bound (⊥ excluded). Both empty/zero
	// for built-in grammars, whose depth is provisioned, not proven.
	Format     string `json:"format,omitempty"`
	StackBound int    `json:"stackBound,omitempty"`
	// Overload scheduling: the machine cost heuristic and the tenant's
	// current fair-share weight (equal to Cost unless overridden).
	Cost   int64 `json:"cost,omitempty"`
	Weight int64 `json:"weight,omitempty"`
}

func (g *grammarEntry) info(queueDepth int) GrammarInfo {
	return GrammarInfo{
		EngineTableKB:    g.prog.TableBytes() >> 10,
		Format:           g.lang.Format,
		StackBound:       g.lang.StackBound,
		Name:             g.name,
		Fingerprint:      telemetry.TraceIDString(g.cm.Fingerprint()),
		States:           g.cm.Stats.States,
		EpsilonStates:    g.cm.Stats.EpsStates,
		TokenTypes:       g.cm.Stats.TokenTypes,
		Productions:      g.cm.Stats.Productions,
		BanksPerContext:  g.cap.BanksPerContext,
		FabricShare:      g.cap.FabricBanks,
		Contexts:         g.cap.Contexts,
		OccupancyKB:      g.cap.OccupancyKB,
		Workers:          g.workers,
		WorkersEffective: g.effectiveWorkers(),
		QueueDepth:       queueDepth,
		VerifyMode:       g.verifyMode().String(),
		Replicas:         g.replicas,
		Cost:             g.cost,
		Weight:           g.weight.Load(),
	}
}

// verifyMode is the detection mode this grammar serves under (ModeOff
// when the chaos layer is disarmed).
func (g *grammarEntry) verifyMode() verify.Mode { return verifyModeOf(g.chaos) }
