package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// Stub-node tests: scripted HTTP handlers standing in for aspend
// nodes, pinning router behavior that real nodes can't stage on
// demand (precise 429 sequences, permanent 5xx, wrong-machine 410).

// stubNode is a scripted fleet member.
type stubNode struct {
	ts    *httptest.Server
	hits  atomic.Int64
	serve func(n int64, w http.ResponseWriter, r *http.Request)
}

func newStub(t *testing.T, serve func(n int64, w http.ResponseWriter, r *http.Request)) *stubNode {
	t.Helper()
	s := &stubNode{serve: serve}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.URL.Path == "/healthz" || r.URL.Path == "/v1/grammars" {
			if r.URL.Path == "/v1/grammars" {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `[{"name":"JSON","fingerprint":"00000000000000aa"}]`)
				return
			}
			w.WriteHeader(http.StatusOK)
			return
		}
		s.serve(s.hits.Add(1), w, r)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func stubRouter(t *testing.T, opt Options, stubs ...*stubNode) (*Router, *httptest.Server) {
	t.Helper()
	for _, s := range stubs {
		opt.Nodes = append(opt.Nodes, s.ts.URL)
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = 50 * time.Millisecond
	}
	if opt.RetryBackoff == 0 {
		opt.RetryBackoff = time.Millisecond
	}
	rt, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func ok200(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"grammar":"JSON","accepted":true,"bytes":2,"tokens":2}`)
}

// TestRouterHonors429RetryAfter pins backpressure handling: 429s are
// absorbed by waiting as told and re-offering — the client sees one
// 200, never a 429, and the throttled node is never breaker-penalized.
func TestRouterHonors429RetryAfter(t *testing.T) {
	stub := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		ok200(w)
	})
	rt, ts := stubRouter(t, Options{}, stub)

	resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after absorbing 429s", resp.StatusCode)
	}
	if got := rt.m.retries.Value(); got != 2 {
		t.Fatalf("fleet_retries_total = %d, want 2", got)
	}
	if rt.members[0].br.open(time.Now()) {
		t.Fatal("429 backpressure opened the breaker")
	}
}

// TestRouterRotatesOffFailingNode pins retry rotation: with one
// member answering 503 and another healthy, the client always gets
// 200 and the failing member is charged the failures.
func TestRouterRotatesOffFailingNode(t *testing.T) {
	bad := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	good := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) { ok200(w) })
	rt, ts := stubRouter(t, Options{}, bad, good)

	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via rotation", i, resp.StatusCode)
		}
	}
	var badM *member
	for _, m := range rt.members {
		if "http://"+m.name == bad.ts.URL {
			badM = m
		}
	}
	if badM.forwardErrs.Value() > 0 && good.hits.Load() == 0 {
		t.Fatal("failures recorded but no traffic reached the healthy member")
	}
}

// TestRouterBreakerShortCircuits pins the breaker's job: after
// threshold data-plane failures the member stops receiving forwards
// entirely — later requests are refused at the router without another
// doomed connection. Single node and no retries keep the hit count
// deterministic.
func TestRouterBreakerShortCircuits(t *testing.T) {
	bad := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	})
	rt, ts := stubRouter(t, Options{MaxRetries: -1, BreakerThreshold: 2, BreakerCooldown: time.Hour}, bad)

	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Two failures reach the node and open the breaker...
	for i := 0; i < 2; i++ {
		if got := post(); got != http.StatusBadGateway {
			t.Fatalf("request %d: status %d, want 502 relayed", i, got)
		}
	}
	// ...after which the router refuses locally: the node sees nothing.
	for i := 0; i < 5; i++ {
		if got := post(); got != http.StatusServiceUnavailable {
			t.Fatalf("post-open request %d: status %d, want 503 (no usable member)", i, got)
		}
	}
	if hits := bad.hits.Load(); hits != 2 {
		t.Fatalf("failing node took %d forwards, want exactly 2 (breaker threshold)", hits)
	}
	m := rt.members[0]
	if !m.br.open(time.Now()) {
		t.Fatal("breaker not open after repeated 502s")
	}
	if m.breakerOpens.Value() != 1 {
		t.Fatalf("fleet_breaker_opens_total = %d, want 1", m.breakerOpens.Value())
	}
	if rt.m.noNodes.Value() != 5 {
		t.Fatalf("fleet_no_node_total = %d, want 5", rt.m.noNodes.Value())
	}
}

// TestRouterRelays410NonRetryable pins the wrong-machine contract
// through the router: a 410 from a node relays to the client
// untouched, with zero retries — no other node can do better.
func TestRouterRelays410NonRetryable(t *testing.T) {
	stub := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		io.WriteString(w, `{"error":"checkpoint was taken on a different machine build"}`)
	})
	other := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGone)
		io.WriteString(w, `{"error":"checkpoint was taken on a different machine build"}`)
	})
	rt, ts := stubRouter(t, Options{}, stub, other)

	resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status %d, want 410 relayed", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("410 body not relayed: %q", body)
	}
	if got := rt.m.retries.Value(); got != 0 {
		t.Fatalf("fleet_retries_total = %d after a non-retryable 410, want 0", got)
	}
	if stub.hits.Load()+other.hits.Load() != 1 {
		t.Fatalf("410 hit %d nodes, want exactly 1", stub.hits.Load()+other.hits.Load())
	}
}

// TestRouterTraceForwarded pins trace propagation: the inbound
// X-Aspen-Trace rides the forwarded request, and a request without one
// gets an ID assigned before the hop.
func TestRouterTraceForwarded(t *testing.T) {
	var seen atomic.Pointer[string]
	stub := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(traceHeader)
		seen.Store(&h)
		ok200(w)
	})
	_, ts := stubRouter(t, Options{}, stub)

	const inbound = "00000000deadbeef"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/parse/JSON", bytes.NewReader([]byte("{}")))
	req.Header.Set(traceHeader, inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := seen.Load(); got == nil || *got != inbound {
		t.Fatalf("node saw trace %v, want %q forwarded", got, inbound)
	}
	if got := resp.Header.Get(traceHeader); got != inbound {
		t.Fatalf("router response trace %q, want %q", got, inbound)
	}

	// No inbound ID: the router assigns one pre-admission and forwards it.
	resp, err = http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := seen.Load()
	if got == nil || *got == "" || *got == inbound {
		t.Fatalf("node saw trace %v, want a fresh router-assigned ID", got)
	}
	if resp.Header.Get(traceHeader) != *got {
		t.Fatalf("router answered trace %q but forwarded %q", resp.Header.Get(traceHeader), *got)
	}
}

// TestRouterExhaustsRetriesTo502 pins bounded retries: a fleet that is
// all 503 yields a 502 to the client after MaxRetries attempts, not an
// infinite loop.
func TestRouterExhaustsRetriesTo502(t *testing.T) {
	stub := newStub(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	rt, ts := stubRouter(t, Options{MaxRetries: 2, BreakerThreshold: 100}, stub)

	resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 502 (exhausted) or 503 (no usable member)", resp.StatusCode)
	}
	if got := rt.m.retries.Value(); got == 0 {
		t.Fatal("no retries recorded against an all-503 fleet")
	}
}

// TestRouterBackoffLateAttempts: from attempt 38 the default 50 ms base
// shifted by the attempt wraps past int64; such a backoff takes the cap
// like any long one instead of panicking in the jitter draw.
func TestRouterBackoffLateAttempts(t *testing.T) {
	rt := &Router{opt: Options{RetryBackoff: DefaultRetryBackoff}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, attempt := range []int{37, 38, 64} {
		if rt.backoff(ctx, attempt, 0) {
			t.Errorf("backoff(canceled ctx, attempt %d) = true, want false", attempt)
		}
	}
}
