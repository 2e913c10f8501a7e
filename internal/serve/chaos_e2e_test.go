package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"aspen/internal/arch"
	"aspen/internal/lang"
	"aspen/internal/verify"
)

// responseBytes canonicalizes a ParseResponse for byte-identity
// comparison: latency fields and lexer scan cycles are zeroed (wall
// time is nondeterministic; scan work legitimately changes when
// recovery replays coalesce chunk boundaries), everything else must
// survive marshaling bit-for-bit.
func responseBytes(t *testing.T, pr ParseResponse) []byte {
	t.Helper()
	pr.LexScanCycles = 0
	pr.QueueNS = 0
	pr.ParseNS = 0
	b, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// jsonWide builds a flat n-element document: lots of tokens (fault
// exposure) at constant stack depth.
func jsonWide(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"key": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%d`, i)
	}
	b.WriteString(`], "tail": "x"}`)
	return b.Bytes()
}

// TestChaosTransientByteIdentical is the headline chaos property:
// concurrent chunked parses on a fabric injecting transient faults
// produce responses byte-identical to a fault-free server's — faults
// cost retries (visible in metrics), never answers. Detection is
// entirely the verify layer's (redundant execution + scrubbing): the
// serving path never reads the injector, whose counters appear below
// only as test-side ground truth that faults really fired.
func TestChaosTransientByteIdentical(t *testing.T) {
	langs := []*lang.Language{lang.JSON(), lang.XML()}
	_, clean := newTestServer(t, Options{Languages: langs})

	type tc struct {
		grammar string
		doc     []byte
	}
	cases := []tc{
		{"JSON", jsonDoc(10)},
		{"JSON", jsonDoc(40)},
		// Wide, not deep: volume raises the injected-fault count, but deep
		// nesting would overflow the 256-deep stack, and that error string
		// embeds a compiled state ID that is not stable across separately
		// compiled servers (two *clean* servers differ on it too).
		{"JSON", jsonWide(150)},
		{"JSON", []byte(`{"truncated": [`)}, // rejected input: verdict must also be fault-free
		{"XML", xmlDoc(8)},
		{"XML", xmlDoc(30)},
		{"XML", xmlDoc(60)},
		{"XML", []byte(`<a><b></a>`)},
	}
	want := make([][]byte, len(cases))
	for i, c := range cases {
		resp, pr := postWhole(t, clean, c.grammar, c.doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clean case %d: status %d", i, resp.StatusCode)
		}
		want[i] = responseBytes(t, pr)
	}

	// The clean server answers on the engine, the guarded one on the
	// simulator: byte identity also holds across the two backends.
	for _, mode := range []verify.Mode{verify.ModeDMR, verify.ModeTMR} {
		t.Run(mode.String(), func(t *testing.T) {
			chaosSrv, chaos := newTestServer(t, Options{
				Languages: langs,
				// Calibration: activations ≈ 2/byte/replica, so a ≤256-byte
				// replay window corrupts a given replica with p ≈ 0.4 at rate
				// 1e-3. DMR rolls back on any single corruption (window fails
				// ≈ 0.64), TMR arbitrates singles and only rolls back on ≥2;
				// 30 attempts make exhaustion vanishingly unlikely either way.
				Chaos: &ChaosOptions{
					FaultRate:        1e-3,
					FaultSeed:        0xC4A0_5EED,
					CheckpointBytes:  256,
					MaxAttempts:      30,
					BackoffBase:      50 * time.Microsecond,
					BackoffCap:       2 * time.Millisecond,
					BreakerThreshold: -1, // exhaustion is the failure under test, not shedding
					Verify:           mode,
				},
			})

			const clients = 8
			var wg sync.WaitGroup
			errs := make(chan error, clients*len(cases))
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i, c := range cases {
						chunk := 3 + (w+i)%11
						resp, got := postChunked(t, chaos, c.grammar, c.doc, chunk)
						if resp.StatusCode != http.StatusOK {
							errs <- fmt.Errorf("client %d case %d: status %d", w, i, resp.StatusCode)
							continue
						}
						if gb := responseBytes(t, got); !bytes.Equal(gb, want[i]) {
							errs <- fmt.Errorf("client %d case %d: corrupted answer accepted:\nchaos %s\nclean %s", w, i, gb, want[i])
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// The run must actually have exercised the machinery: faults
			// fired (ground truth) and the detectors both caught corruption
			// (verify_* series) and recovered it.
			snap := chaosSrv.Registry().Snapshot()
			faults := snap.Counters["serve_JSON_fault_flips_total"] + snap.Counters["serve_JSON_fault_stuck_total"] +
				snap.Counters["serve_XML_fault_flips_total"] + snap.Counters["serve_XML_fault_stuck_total"]
			if faults == 0 {
				t.Error("no transient faults fired — the chaos run tested nothing")
			}
			detected := snap.Counters["serve_JSON_verify_divergences_total"] + snap.Counters["serve_XML_verify_divergences_total"] +
				snap.Counters["serve_JSON_verify_votes_total"] + snap.Counters["serve_XML_verify_votes_total"] +
				snap.Counters["serve_JSON_verify_scrub_failures_total"] + snap.Counters["serve_XML_verify_scrub_failures_total"]
			if detected == 0 {
				t.Error("faults fired but no detector counter moved")
			}
			if mode == verify.ModeTMR {
				if snap.Counters["serve_JSON_verify_votes_total"]+snap.Counters["serve_XML_verify_votes_total"] == 0 {
					t.Error("TMR run arbitrated nothing — majority voting untested")
				}
			}
			recoveries := snap.Counters["serve_JSON_recoveries_total"] + snap.Counters["serve_XML_recoveries_total"]
			if mode == verify.ModeDMR && recoveries == 0 {
				t.Error("faults fired but no recoveries recorded")
			}
			if snap.Counters["serve_JSON_recovery_exhausted_total"]+snap.Counters["serve_XML_recovery_exhausted_total"] > 0 {
				t.Error("recovery exhausted during the transient-fault run (rate/attempts miscalibrated)")
			}
		})
	}
}

// TestChaosBankKillDegradation pins the degradation story end to end:
// killing banks shrinks the owning grammar's worker pool to exactly the
// surviving capacity (floor one), healthz reports degraded with 200,
// a mid-flight request whose bank dies under it recovers and answers
// correctly, and a burst still completes on the shrunken pool.
func TestChaosBankKillDegradation(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON()},
		Chaos:     &ChaosOptions{FaultSeed: 7}, // rate 0: kills only
	})
	g := s.grammar("JSON")
	per := g.cap.BanksPerContext
	share := g.bankHi - g.bankLo
	if g.effectiveWorkers() != g.workers {
		t.Fatalf("pre-kill effective workers %d != %d", g.effectiveWorkers(), g.workers)
	}

	health := func() (int, HealthResponse) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}
	if code, h := health(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy fabric: code %d status %q", code, h.Status)
	}

	// A request in flight while its bank dies must recover, not corrupt.
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/parse/JSON", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	inflight := make(chan ParseResponse, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			inflight <- ParseResponse{Error: err.Error()}
			return
		}
		defer resp.Body.Close()
		var out ParseResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		inflight <- out
	}()
	if _, err := pw.Write([]byte(`{"a": [1, 2, `)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Snapshot().Gauges["serve_inflight"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !s.KillBank(g.bankLo) {
		t.Fatal("first kill failed")
	}
	if _, err := pw.Write([]byte(`3], "b": "x"}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	out := <-inflight
	if !out.Accepted || out.Error != "" {
		t.Fatalf("mid-flight kill: %+v", out)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["serve_JSON_fault_kills_total"] < 1 {
		t.Errorf("mid-flight bank loss not detected: kills=%d", snap.Counters["serve_JSON_fault_kills_total"])
	}
	if snap.Counters["serve_JSON_recoveries_total"] < 1 {
		t.Error("mid-flight bank loss not recovered")
	}

	// Proportional degradation: after killing k banks the worker pool is
	// exactly the capacity of a share-minus-k fabric.
	killed := 1 // the mid-flight kill above
	for _, k := range []int{per, 3 * per} {
		for killed < k {
			if s.KillNextBank() < 0 {
				t.Fatal("fabric exhausted early")
			}
			killed++
		}
		wantWorkers := arch.CapacityFor(share-killed, per).Contexts
		if g.workers < wantWorkers {
			wantWorkers = g.workers
		}
		if got := g.effectiveWorkers(); got != wantWorkers {
			t.Errorf("after %d kills: effective workers %d, want %d", killed, got, wantWorkers)
		}
		code, h := health()
		if code != http.StatusOK || h.Status != "degraded" {
			t.Errorf("degraded fabric: code %d status %q, want 200 %q", code, h.Status, "degraded")
		}
		if h.LiveBanks != s.fabric.Live() || h.EffectiveWorkers["JSON"] != g.effectiveWorkers() {
			t.Errorf("healthz fabric accounting: %+v", h)
		}
	}

	// Total loss: the pool floors at one slot and the tenant still
	// answers — degraded, not dead.
	for s.KillNextBank() >= 0 {
	}
	if got := g.effectiveWorkers(); got != 1 {
		t.Errorf("fully dead fabric: effective workers %d, want floor 1", got)
	}
	if _, h := health(); h.LiveBanks != 0 || h.Status != "degraded" {
		t.Errorf("fully dead fabric healthz: %+v", h)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postWhole(t, ts, "JSON", []byte(`[1, [2, 3], {"k": "v"}]`))
			if resp.StatusCode != http.StatusOK || !out.Accepted {
				errs <- fmt.Errorf("burst on floor-1 pool: status %d accepted %v", resp.StatusCode, out.Accepted)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestChaosRecoveryExhaustionOpensBreaker drives the failure ladder: a
// saturating fault rate exhausts replay attempts (503), consecutive
// exhaustions open the breaker (immediate 503 + Retry-After), and after
// the cooldown a single probe is let through.
func TestChaosRecoveryExhaustionOpensBreaker(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON()},
		Chaos: &ChaosOptions{
			FaultRate:        1, // every activation faults: unrecoverable
			FaultSeed:        3,
			MaxAttempts:      2,
			BackoffBase:      50 * time.Microsecond,
			BackoffCap:       time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  150 * time.Millisecond,
			// TMR so the saturating corruption is actually *detected*
			// (independently corrupted replicas three-way split every
			// window) — the escalation ladder runs without any oracle.
			Verify: verify.ModeTMR,
		},
	})
	doc := []byte(`[1, 2, 3]`)
	for i := 0; i < 2; i++ {
		resp, _ := postWhole(t, ts, "JSON", doc)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("exhausted request %d: status %d, want 503", i, resp.StatusCode)
		}
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["serve_JSON_recovery_exhausted_total"] != 2 {
		t.Errorf("recovery_exhausted = %d, want 2", snap.Counters["serve_JSON_recovery_exhausted_total"])
	}
	if snap.Counters["serve_JSON_breaker_opens_total"] != 1 || snap.Gauges["serve_JSON_breaker_open"] != 1 {
		t.Fatalf("breaker did not open after %d exhaustions: %+v", 2, snap.Counters)
	}

	// Open breaker: shed immediately, with a Retry-After hint.
	resp, _ := postWhole(t, ts, "JSON", doc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-breaker 503 without Retry-After")
	}
	if got := s.Registry().Snapshot().Counters["serve_JSON_breaker_denied_total"]; got != 1 {
		t.Errorf("breaker_denied = %d, want 1", got)
	}

	// After the cooldown one probe runs (and fails again, reopening).
	time.Sleep(200 * time.Millisecond)
	resp, _ = postWhole(t, ts, "JSON", doc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("probe status %d, want 503", resp.StatusCode)
	}
	snap = s.Registry().Snapshot()
	if snap.Counters["serve_JSON_recovery_exhausted_total"] != 3 {
		t.Errorf("probe did not execute: exhausted = %d, want 3", snap.Counters["serve_JSON_recovery_exhausted_total"])
	}
	if snap.Counters["serve_JSON_breaker_opens_total"] != 2 {
		t.Errorf("failed probe did not reopen: opens = %d, want 2", snap.Counters["serve_JSON_breaker_opens_total"])
	}

	// A half-open probe whose request exits without a verdict on fabric
	// health — here a context already canceled before the first byte —
	// must release the probe claim. Otherwise the probing flag wedges
	// and every later request is denied until process restart.
	time.Sleep(200 * time.Millisecond) // cooldown after the reopen above
	g := s.grammar("JSON")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, sysErr := g.parseGuarded(ctx, bytes.NewReader(doc), nil)
	if !errors.Is(sysErr, context.Canceled) {
		t.Fatalf("canceled probe: sysErr = %v, want context.Canceled", sysErr)
	}
	// The next request must become the new probe and actually execute
	// (it exhausts and reopens), not bounce off a leaked probing flag.
	resp, _ = postWhole(t, ts, "JSON", doc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-abort probe status %d, want 503", resp.StatusCode)
	}
	snap = s.Registry().Snapshot()
	if snap.Counters["serve_JSON_recovery_exhausted_total"] != 4 {
		t.Errorf("probe wedged after aborted probe: exhausted = %d, want 4",
			snap.Counters["serve_JSON_recovery_exhausted_total"])
	}
	if snap.Counters["serve_JSON_breaker_denied_total"] != 1 {
		t.Errorf("post-abort probe was denied: denied = %d, want still 1",
			snap.Counters["serve_JSON_breaker_denied_total"])
	}

	// Healthy tenants are unaffected by this one's breaker: the fabric
	// still reports every provisioned bank alive.
	if code, _ := func() (int, error) {
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return 0, err
		}
		r.Body.Close()
		return r.StatusCode, nil
	}(); code != http.StatusOK {
		t.Errorf("healthz during breaker-open = %d, want 200", code)
	}
}

// TestChaosStackOverflowIs422: an input that overruns the provisioned
// stack depth is the *client's* problem — a deterministic, replicated
// rejection. It must answer 422, count only parse_rejected_depth, and
// must not read as corruption: no replay retries, no error count, no
// breaker movement (replaying a deterministic overflow would reproduce
// it MaxAttempts times and then open the breaker for a healthy fabric).
func TestChaosStackOverflowIs422(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON()},
		Chaos: &ChaosOptions{
			FaultSeed:        11, // rate 0: the overflow is the only event
			BreakerThreshold: 2,
			Verify:           verify.ModeTMR,
		},
	})
	deep := bytes.Repeat([]byte("["), 2048) // default depth budget is far smaller
	resp, _ := postWhole(t, ts, "JSON", deep)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("deep input: status %d, want 422", resp.StatusCode)
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve_JSON_parse_rejected_depth_total"]; got != 1 {
		t.Errorf("parse_rejected_depth = %d, want 1", got)
	}
	if got := snap.Counters["serve_JSON_errors_total"]; got != 0 {
		t.Errorf("errors = %d, want 0 (a depth rejection is not a machine fault)", got)
	}
	if got := snap.Counters["serve_JSON_retries_total"]; got != 0 {
		t.Errorf("retries = %d, want 0 (deterministic rejection must not trigger replay)", got)
	}
	if got := snap.Counters["serve_JSON_breaker_opens_total"]; got != 0 {
		t.Errorf("breaker_opens = %d, want 0", got)
	}
	// The same tenant still serves normal documents afterwards.
	if resp, out := postWhole(t, ts, "JSON", []byte(`[1, [2, 3]]`)); resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("post-rejection parse: status %d accepted %v", resp.StatusCode, out.Accepted)
	}
}

// TestChaosTMRCapacityAccounting pins the cost side of redundant
// execution: a TMR unit occupies 3× the banks of a bare context, so the
// derived worker width shrinks accordingly, the replicas run on
// disjoint sub-ranges of the tenant's banks, and both /healthz and
// /v1/grammars surface the mode and replica count.
func TestChaosTMRCapacityAccounting(t *testing.T) {
	off, _ := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON()},
		Chaos:     &ChaosOptions{FaultSeed: 5, Verify: verify.ModeTMR},
	})
	g := s.grammar("JSON")
	per := g.cap.BanksPerContext
	share := g.bankHi - g.bankLo

	if g.replicas != 3 || g.unitBanks != 3*per {
		t.Fatalf("TMR unit shape: replicas=%d unitBanks=%d, want 3 and %d", g.replicas, g.unitBanks, 3*per)
	}
	want := arch.CapacityFor(share, 3*per).Contexts
	if g.workers != want {
		t.Errorf("TMR workers = %d, want %d (capacity at 3 contexts/unit)", g.workers, want)
	}
	if offW := off.grammar("JSON").workers; offW > 1 && g.workers >= offW {
		t.Errorf("TMR workers %d not below unguarded %d — redundancy cost invisible", g.workers, offW)
	}
	// Replica placement partitions the tenant's range: disjoint,
	// contiguous, fully covering.
	prev := g.bankLo
	for i := 0; i < g.replicas; i++ {
		lo, hi := g.replicaBanks(i)
		if lo != prev || hi <= lo || hi > g.bankHi {
			t.Fatalf("replica %d banks [%d,%d) break the partition of [%d,%d)", i, lo, hi, g.bankLo, g.bankHi)
		}
		prev = hi
	}
	if prev != g.bankHi {
		t.Fatalf("replica partition stops at %d, want %d", prev, g.bankHi)
	}

	// Surfacing: healthz carries the mode; the grammar listing carries
	// mode, replicas, and the (shrunken) worker width.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.VerifyMode != "tmr" {
		t.Errorf("healthz verifyMode = %q, want tmr", h.VerifyMode)
	}
	if h.EffectiveWorkers["JSON"] != g.workers {
		t.Errorf("healthz effectiveWorkers = %d, want %d", h.EffectiveWorkers["JSON"], g.workers)
	}
	resp, err = http.Get(ts.URL + "/v1/grammars")
	if err != nil {
		t.Fatal(err)
	}
	var infos []GrammarInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].VerifyMode != "tmr" || infos[0].Replicas != 3 || infos[0].Workers != g.workers {
		t.Errorf("grammar info %+v, want tmr/3 replicas/%d workers", infos, g.workers)
	}

	// And the guarded path still parses cleanly at rate 0.
	if resp, out := postWhole(t, ts, "JSON", []byte(`{"k": [1, 2, 3]}`)); resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("TMR clean parse: status %d accepted %v", resp.StatusCode, out.Accepted)
	}
}
