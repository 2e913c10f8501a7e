// Command aspend is the ASPEN parsing daemon: a multi-tenant HTTP
// service that loads named grammars once at startup (compiled to hDPDAs
// and placed onto the simulated bank fabric) and serves streaming parse
// jobs with bank-derived concurrency, bounded per-tenant waiting rooms,
// and graceful drain.
//
// Usage:
//
//	aspend -addr :8173
//	aspend -addr 127.0.0.1:0 -langs JSON,XML -queue 32 -timeout 10s
//	aspend -fabric-banks 128 -pprof-addr :6060 -metrics - -trace-out reqs.jsonl -trace-sample 100
//	aspend -fault-rate 0.001 -fault-seed 42 -kill-bank-after 30s -verify-mode tmr
//	aspend -latency-target 50ms -brownout   # overload control: AIMD limit + brownout ladder
//	aspend -gray-rate 0.01 -gray-delay 5ms  # chaos: gray-slow node (correct but stalling)
//
// API:
//
//	POST /v1/parse/{grammar}   stream a document; chunked bodies are fed
//	                           incrementally into the hDPDA as they arrive
//	GET  /v1/grammars          loaded grammars, machine shapes, fabric mapping
//	GET  /v1/debug/requests    flight recorder: recently completed requests
//	                           plus a slow/error ring, filterable by
//	                           ?grammar= ?outcome= ?min_ms= ?trace=
//	GET  /healthz              ok / draining
//	GET  /metrics              Prometheus text (same mux; also /metrics.json,
//	                           /debug/vars, /debug/pprof/...)
//
// Every response — including 4xx/5xx — carries an X-Aspen-Trace header;
// the ID joins the flight recorder (?trace=) and per-request trace
// output. -flight sizes the recorder; -slow sets the latency beyond
// which a request is retained in its notable ring.
//
// Overload control: every 429 (full waiting room, deadline shed, or
// brownout) carries Retry-After and counts in shed_total{reason=}; one
// weighted-fair scheduler admits every parse, holding each tenant to
// its bank-derived width (-workers), its waiting room (-queue) and the
// AIMD limit on global parse concurrency (-latency-target), weighted by
// each grammar's proven machine cost (admin "weight" op overrides); and
// -brownout arms the degraded ladder that sheds the cheapest tenants
// first when the limiter collapses.
//
// SIGINT/SIGTERM starts a graceful drain: new requests get 503, in-flight requests
// finish, then the process exits (writing the -metrics snapshot).
//
// Chaos mode: -fault-rate injects deterministic transient faults (state
// bit flips, stuck-at stack columns) into every parse, exercising
// checkpointed recovery; -kill-bank-after permanently kills one fabric
// bank per interval, narrowing the owning tenant and flipping /healthz to
// "degraded" (still 200). Detection is oracle-free: -verify-mode picks
// how silent corruption is caught (scrub = invariant scrubbing on one
// context; dmr/tmr = redundant execution on disjoint banks, which
// consumes real fabric capacity and visibly shrinks worker pools).
// Answers stay byte-identical to a fault-free run — chaos costs
// retries, never correctness. Guarded parses run the cycle-accurate
// simulator, whose execution hooks the detectors need; every other
// parse runs on the grammar's lowered engine tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aspen"
	"aspen/internal/lang"
	"aspen/internal/serve"
	"aspen/internal/store"
	"aspen/internal/telemetry"
	"aspen/internal/verify"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8173", "listen address (port 0 = ephemeral, printed on stderr)")
		langsFlag   = flag.String("langs", "", "comma-separated grammars to load (default: all built-ins)")
		queue       = flag.Int("queue", serve.DefaultQueueDepth, "per-grammar waiting room: requests that may wait beyond the running width before the tenant is shed 429")
		workers     = flag.Int("workers", 0, "per-grammar concurrency width override: requests that may run at once (0 = derived from the bank fabric)")
		timeout     = flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline, queue wait included")
		maxBody     = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "maximum request body bytes")
		fabricBanks = flag.Int("fabric-banks", 0, "total LLC banks the fabric repurposes (0 = paper default)")
		traceSample = flag.Int("trace-sample", 1, "with -trace-out: emit every Nth request")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		drainGrace  = flag.Duration("drain-grace", 0, "on SIGTERM, time between flipping /readyz unready and starting the drain (lets fleet routers stop routing here before requests start getting 503)")
		faultRate   = flag.Float64("fault-rate", 0, "chaos: per-activation transient fault probability (0 = no injection)")
		faultSeed   = flag.Int64("fault-seed", 1, "chaos: deterministic fault injector seed")
		killAfter   = flag.Duration("kill-bank-after", 0, "chaos: permanently kill one fabric bank per interval (0 = never)")
		verifyMode  = flag.String("verify-mode", "tmr", "silent-corruption detection: off|scrub|dmr|tmr (dmr/tmr run redundant contexts and shrink worker pools; applies whenever the recovery layer is armed)")
		flightSize  = flag.Int("flight", telemetry.DefaultFlightSize, "flight-recorder capacity: completed requests kept for /v1/debug/requests (slow/error requests keep a quarter of this on top)")
		slowThresh  = flag.Duration("slow", time.Duration(telemetry.DefaultSlowNS), "latency at which a request is retained in the flight recorder's notable ring")
		stateDir    = flag.String("state-dir", "", "durable control-plane state directory: registry mutations are journaled and replayed on restart, and ?session= parses checkpoint here (empty = in-memory only)")
		latencyTgt  = flag.Duration("latency-target", serve.DefaultLatencyTarget, "parse-latency target the AIMD concurrency limiter steers toward")
		brownout    = flag.Bool("brownout", false, "shed the cheapest-weight tenants first when the concurrency limiter collapses (see shed_total{reason=brownout})")
		grayRate    = flag.Float64("gray-rate", 0, "chaos: per-activation latency-fault probability — the node stays correct but turns gray-slow (0 = no injection)")
		grayDelay   = flag.Duration("gray-delay", 0, "chaos: stall applied when a gray latency fault fires (0 with -gray-rate set = count fires without sleeping)")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	reg := telemetry.NewRegistry()
	sess := tf.MustStart("aspend", reg)
	defer sess.MustClose("aspend")

	var langs []*lang.Language
	if *langsFlag != "" {
		for _, name := range strings.Split(*langsFlag, ",") {
			name = strings.TrimSpace(name)
			l := serve.ResolveBuiltin(name)
			if l == nil {
				usage("unknown grammar %q in -langs (have Cool, DOT, JSON, XML, MiniC)", name)
			}
			langs = append(langs, l)
		}
	}
	cfg := aspen.DefaultArchConfig()
	if *fabricBanks > 0 {
		cfg.FabricBanks = *fabricBanks
	}

	vm, err := verify.ParseMode(*verifyMode)
	if err != nil {
		usage("%v", err)
	}
	// Arm the recovery layer whenever any chaos knob is set — or when the
	// operator explicitly asked for a detection mode (running dmr/tmr on
	// a healthy fabric is a legitimate hardening posture; detection must
	// not depend on injection being configured).
	verifySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "verify-mode" {
			verifySet = true
		}
	})
	var chaos *serve.ChaosOptions
	if *faultRate > 0 || *killAfter > 0 || *grayRate > 0 || verifySet {
		chaos = &serve.ChaosOptions{
			FaultRate: *faultRate, FaultSeed: *faultSeed, Verify: vm,
			GrayRate: *grayRate, GrayDelay: *grayDelay,
		}
	}

	var st *store.Store
	if *stateDir != "" {
		st, err = store.Open(*stateDir)
		if err != nil {
			fatal("%v", err)
		}
		defer st.Close()
		if n := len(st.Replay.Records); n > 0 {
			fmt.Fprintf(os.Stderr, "aspend: replayed %d journal record(s) from %s\n", n, *stateDir)
		}
		if st.Replay.DroppedBytes > 0 {
			fmt.Fprintf(os.Stderr, "aspend: journal: dropped %d trailing byte(s) (%s); valid prefix kept\n",
				st.Replay.DroppedBytes, st.Replay.DropCause)
		}
	}

	srv, err := serve.New(serve.Options{
		Languages:      langs,
		Arch:           cfg,
		QueueDepth:     *queue,
		Workers:        *workers,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Registry:       reg,
		Trace:          traceSink(sess, *traceSample),
		TraceSample:    *traceSample,
		Chaos:          chaos,
		Store:          st,
		Resolver:       serve.ResolveBuiltin,
		FlightSize:     *flightSize,
		SlowThreshold:  *slowThresh,
		LatencyTarget:  *latencyTgt,
		Brownout:       *brownout,
	})
	if err != nil {
		fatal("%v", err)
	}
	if *killAfter > 0 {
		go killBanks(srv, *killAfter)
	}

	// SIGHUP: hitless reload — every loaded grammar is recompiled and
	// swapped in while in-flight requests finish on the old entries.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			n, err := srv.Reload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "aspend: reload: %v\n", err)
				continue
			}
			fmt.Fprintf(os.Stderr, "aspend: reload: swapped %d grammar(s)\n", n)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "aspend: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("%v", err)
		}
	case <-ctx.Done():
		stop()
		// Readiness flips first: a health-checking router sees /readyz go
		// 503 and stops placing new work here while this node can still
		// answer, then the drain starts refusing what arrives anyway.
		srv.SetReady(false)
		if *drainGrace > 0 {
			fmt.Fprintf(os.Stderr, "aspend: unready; draining in %s...\n", *drainGrace)
			time.Sleep(*drainGrace)
		}
		fmt.Fprintf(os.Stderr, "aspend: draining (up to %s)...\n", *drainWait)
		dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		// Service-level drain (503 for new work, wait for in-flight),
		// then connection-level shutdown.
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "aspend: %v\n", err)
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "aspend: shutdown: %v\n", err)
		}
		fmt.Fprintln(os.Stderr, "aspend: drained")
	}
}

// killBanks is the -kill-bank-after schedule: one permanent bank death
// per interval, until the fabric is gone (the service itself keeps
// answering on floor-one worker pools).
func killBanks(srv *serve.Server, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		bank := srv.KillNextBank()
		if bank < 0 {
			fmt.Fprintln(os.Stderr, "aspend: chaos: every fabric bank is dead; serving on floor capacity")
			return
		}
		fmt.Fprintf(os.Stderr, "aspend: chaos: killed bank %d (%d/%d live)\n",
			bank, srv.Fabric().Live(), srv.Fabric().Total())
	}
}

// traceSink returns the session sink when request tracing is on.
func traceSink(sess *telemetry.Session, sample int) telemetry.TraceSink {
	if !sess.Tracing() || sample < 1 {
		return nil
	}
	return sess.Sink()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspend: "+format+"\n", args...)
	os.Exit(1)
}

// usage rejects bad flag values: one line on stderr, exit code 2 (the
// conventional usage-error status, distinct from runtime failures).
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aspend: "+format+"\n", args...)
	os.Exit(2)
}
