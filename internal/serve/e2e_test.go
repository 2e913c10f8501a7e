package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aspen/internal/lang"
	"aspen/internal/store"
	"aspen/internal/telemetry"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postWhole(t *testing.T, ts *httptest.Server, grammar string, doc []byte) (*http.Response, ParseResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/parse/"+grammar, "application/octet-stream", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr ParseResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr
}

// postChunked uploads doc with Transfer-Encoding: chunked in small
// uneven pieces, exercising the stream path end to end.
func postChunked(t *testing.T, ts *httptest.Server, grammar string, doc []byte, chunk int) (*http.Response, ParseResponse) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/parse/"+grammar, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // force chunked
	go func() {
		for len(doc) > 0 {
			n := chunk
			if n > len(doc) {
				n = len(doc)
			}
			if _, err := pw.Write(doc[:n]); err != nil {
				return
			}
			doc = doc[n:]
		}
		pw.Close()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ParseResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// machineEqual compares the chunking-invariant fields of two responses.
// Latency fields necessarily differ, and lex scan cycles grow slightly
// with chunk count (the streaming lexer re-scans the held-back tail at
// each boundary) — the hDPDA-side numbers must match exactly.
func machineEqual(chunked, whole ParseResponse) bool {
	if chunked.LexScanCycles < whole.LexScanCycles {
		return false // re-scanning can only add scan work, never remove it
	}
	chunked.LexScanCycles, whole.LexScanCycles = 0, 0
	chunked.QueueNS, whole.QueueNS = 0, 0
	chunked.ParseNS, whole.ParseNS = 0, 0
	return chunked == whole
}

func jsonDoc(depth int) []byte {
	var b strings.Builder
	b.WriteString(`{"key": `)
	for i := 0; i < depth; i++ {
		b.WriteString(`[1, `)
	}
	b.WriteString("0")
	for i := 0; i < depth; i++ {
		b.WriteString(`]`)
	}
	b.WriteString(`, "tail": "x"}`)
	return []byte(b.String())
}

func xmlDoc(n int) []byte {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="i%d">text %d</item>`, i, i)
	}
	b.WriteString("</root>")
	return []byte(b.String())
}

// The headline e2e contract: N concurrent clients with chunked uploads
// across two tenants, every response correct, and chunked ≡ whole-input
// on every machine-side field. Run under -race this also proves the
// pooled parsers never share state across concurrent requests.
func TestE2EConcurrentChunked(t *testing.T) {
	// On the fast path the concurrent clients below each run on their
	// own pooled engine.Exec.
	t.Run("fast", testE2EConcurrentChunked)
}

func testE2EConcurrentChunked(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON(), lang.XML()},
	})
	type tc struct {
		grammar  string
		doc      []byte
		accepted bool
	}
	cases := []tc{
		{"JSON", jsonDoc(10), true},
		{"JSON", jsonDoc(40), true},
		{"JSON", []byte(`{"truncated": [`), false},
		{"XML", xmlDoc(8), true},
		{"XML", xmlDoc(30), true},
		{"XML", []byte(`<a><b></a>`), false}, // mismatched close tag jams the DPDA
	}
	// Reference responses via whole-body uploads.
	want := make([]ParseResponse, len(cases))
	for i, c := range cases {
		resp, pr := postWhole(t, ts, c.grammar, c.doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d: whole-input status %d", i, resp.StatusCode)
		}
		if pr.Accepted != c.accepted {
			t.Fatalf("case %d (%s): accepted=%v, want %v (err %q)", i, c.grammar, pr.Accepted, c.accepted, pr.Error)
		}
		want[i] = pr
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(cases))
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, c := range cases {
				chunk := 3 + (w+i)%11 // vary the chunking per client
				resp, got := postChunked(t, ts, c.grammar, c.doc, chunk)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d case %d: status %d", w, i, resp.StatusCode)
					continue
				}
				if !machineEqual(got, want[i]) {
					errs <- fmt.Errorf("client %d case %d: chunked %+v != whole %+v", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := s.Registry().Snapshot()
	wantTotal := int64(len(cases) * (clients + 1))
	if got := snap.Counters["serve_requests_total"]; got != wantTotal {
		t.Errorf("serve_requests_total = %d, want %d", got, wantTotal)
	}
	if got := snap.Counters["serve_compiles_total"]; got != 2 {
		t.Errorf("serve_compiles_total = %d, want 2 (startup only)", got)
	}
	for _, gi := range s.Grammars() {
		if gi.EngineTableKB <= 0 {
			t.Errorf("%s: /v1/grammars engineTableKB = %d, want > 0", gi.Name, gi.EngineTableKB)
		}
	}
}

// Saturation answers 429 + Retry-After instead of queueing without
// bound: with one worker slot and no waiting room, a second request
// must bounce while the first is mid-body.
func TestSaturationBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages:  []*lang.Language{lang.JSON()},
		Workers:    1,
		QueueDepth: -1, // no waiting room: admission == a free slot
	})
	// Occupy the only slot with a request whose body never finishes
	// until we say so.
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/parse/JSON", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	type result struct {
		status int
		body   ParseResponse
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			slow <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		var out ParseResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		slow <- result{status: resp.StatusCode, body: out}
	}()
	// An unbuffered pipe write only completes once the transport (inside
	// Do) reads it, so this also synchronizes with the upload starting.
	if _, err := pw.Write([]byte(`{"a": [1, `)); err != nil {
		t.Fatal(err)
	}
	// Wait until the slow request is actually admitted.
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Snapshot().Gauges["serve_inflight"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, _ := postWhole(t, ts, "JSON", []byte(`1`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Registry().Snapshot().Counters[`shed_total{reason="queue"}`]; got < 1 {
		t.Errorf(`shed_total{reason="queue"} = %d, want ≥ 1`, got)
	}

	// Release the slot; the slow request completes normally and the
	// fabric admits work again.
	if _, err := pw.Write([]byte(`2]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	r := <-slow
	if r.status != http.StatusOK || !r.body.Accepted {
		t.Fatalf("slow request: status %d accepted %v", r.status, r.body.Accepted)
	}
	resp, out := postWhole(t, ts, "JSON", []byte(`[1, 2]`))
	if resp.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("post-saturation request: status %d accepted %v", resp.StatusCode, out.Accepted)
	}
}

// Graceful drain: in-flight requests finish, new ones get 503, and
// Drain returns only after the fabric is empty.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})

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
	if _, err := pw.Write([]byte(`[1, `)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Snapshot().Gauges["serve_inflight"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining must be observable before the in-flight request ends.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postWhole(t, ts, "JSON", []byte(`1`)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hr.StatusCode)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Finish the in-flight body: it must complete successfully and only
	// then may Drain return.
	if _, err := pw.Write([]byte(`2]`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	out := <-inflight
	if !out.Accepted {
		t.Fatalf("in-flight request during drain: %+v", out)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// Deadline enforcement: a client that stalls mid-body is answered 504
// once the request deadline passes, releasing its slot.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages:      []*lang.Language{lang.JSON()},
		RequestTimeout: 150 * time.Millisecond,
	})
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/parse/JSON", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	go func() { _, _ = pw.Write([]byte(`[1, `)) }() // then stall forever
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("expected a response, got transport error %v", err)
	}
	defer resp.Body.Close()
	pw.CloseWithError(io.ErrClosedPipe)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled-body status = %d, want 504", resp.StatusCode)
	}
	if got := s.Registry().Snapshot().Counters["serve_timeouts_total"]; got != 1 {
		t.Errorf("serve_timeouts_total = %d, want 1", got)
	}
	// The slot was released: a well-formed request succeeds afterwards.
	ok, out := postWhole(t, ts, "JSON", []byte(`[1, 2]`))
	if ok.StatusCode != http.StatusOK || !out.Accepted {
		t.Fatalf("post-timeout request: status %d accepted %v", ok.StatusCode, out.Accepted)
	}
}

func TestRoutingAndLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Languages:    []*lang.Language{lang.JSON()},
		MaxBodyBytes: 64,
	})
	if resp, _ := postWhole(t, ts, "Klingon", []byte(`1`)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown grammar = %d, want 404", resp.StatusCode)
	}
	big := bytes.Repeat([]byte(`[`), 200)
	if resp, _ := postWhole(t, ts, "JSON", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}
	// The debug endpoints share the service mux.
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/grammars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []GrammarInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "JSON" || infos[0].Workers < 1 || infos[0].Contexts < 1 {
		t.Errorf("grammar infos: %+v", infos)
	}
}

// Sampled request traces: every TraceSample-th concluded request —
// whole document or a durable session's final chunk, never a partial
// chunk's ack — reaches the sink, carrying the fields its answer had.
func TestTraceSampling(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sink := telemetry.NewRingSink(16)
	_, ts := newTestServer(t, Options{
		Languages:   []*lang.Language{lang.JSON()},
		Store:       st,
		Trace:       sink,
		TraceSample: 2, // every 2nd request
	})
	post := func(query, body string) ParseResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/parse/JSON"+query, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %q: status %d", query, resp.StatusCode)
		}
		var pr ParseResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	post("", `[1]`)
	rejected := post("", `[1, 2`) // concluded #2: sampled
	post("", `[1, 2, 3]`)
	if ack := post("?session=tr", `{"k": [1, 2`); !ack.Partial {
		t.Fatalf("first session chunk answered %+v, want a partial ack", ack)
	}
	final := post("?session=tr&final=1", `, 3], "s": "str"}`) // concluded #4: sampled

	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("sampled %d events, want 2 (concluded requests 2 and 4)", len(evs))
	}
	for i, want := range []ParseResponse{rejected, final} {
		ev, ok := evs[i].(map[string]any)
		if !ok || ev["event"] != "serve.request" {
			t.Fatalf("event %d shape: %+v", i, evs[i])
		}
		if ev["grammar"] != want.Grammar || ev["accepted"] != want.Accepted ||
			ev["bytes"] != want.Bytes || ev["tokens"] != want.Tokens {
			t.Errorf("event %d = %+v, answer was %+v", i, ev, want)
		}
	}
	if rejected.Accepted || !final.Accepted || final.Bytes != len(`{"k": [1, 2, 3], "s": "str"}`) {
		t.Errorf("answers: rejected %+v, final %+v", rejected, final)
	}
}
