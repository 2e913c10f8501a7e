package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"aspen/internal/lang"
	"aspen/internal/store"
	"aspen/internal/stream"
)

// newHandoffServer boots a durable single- or multi-grammar server for
// the handoff-endpoint tests.
func newHandoffServer(t *testing.T, langs ...*lang.Language) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return newTestServer(t, Options{Languages: langs, Store: st})
}

// corruptTotal reads checkpoint_store_corrupt_total, which every path
// that refuses a session checkpoint image raises by one.
func corruptTotal(s *Server) int64 {
	return s.Registry().Snapshot().Counters["checkpoint_store_corrupt_total"]
}

func putImage(t *testing.T, ts *httptest.Server, grammar, id string, img []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut,
		ts.URL+"/v1/sessions/"+grammar+"/"+id+"/checkpoint", bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestSessionHandoffRoundTrip pins the file-transfer contract: a
// checkpoint GET from one node, PUT to another, and the session
// concludes on the receiver byte-identically to a whole-document parse.
func TestSessionHandoffRoundTrip(t *testing.T) {
	doc := []byte(lang.JSONSample)
	half := len(doc) / 2

	_, tsA := newHandoffServer(t, lang.JSON())
	_, tsB := newHandoffServer(t, lang.JSON())

	// Reference: whole-document parse on the receiver.
	refResp, ref := postWhole(t, tsB, "JSON", doc)
	if refResp.StatusCode != http.StatusOK || !ref.Accepted {
		t.Fatalf("reference parse: status %d accepted %v", refResp.StatusCode, ref.Accepted)
	}

	// Feed half a session on node A, then ship its checkpoint to B.
	resp, err := http.Post(tsA.URL+"/v1/parse/JSON?session=ship", "application/octet-stream", bytes.NewReader(doc[:half]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session chunk: status %d", resp.StatusCode)
	}

	getResp, err := http.Get(tsA.URL + "/v1/sessions/JSON/ship/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint GET: status %d: %s", getResp.StatusCode, img)
	}
	if got := getResp.Header.Get("X-Aspen-Session-Bytes"); got == "" || got == "0" {
		t.Fatalf("checkpoint GET missing durable offset header, got %q", got)
	}

	put := putImage(t, tsB, "JSON", "ship", img)
	if put.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(put.Body)
		t.Fatalf("checkpoint PUT: status %d: %s", put.StatusCode, body)
	}
	var ack HandoffResponse
	if err := json.NewDecoder(put.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Bytes != half {
		t.Fatalf("PUT ack bytes = %d, want %d", ack.Bytes, half)
	}

	// Conclude on B; the stitched result must match the whole parse.
	resp, err = http.Post(tsB.URL+"/v1/parse/JSON?session=ship&final=1", "application/octet-stream", bytes.NewReader(doc[half:]))
	if err != nil {
		t.Fatal(err)
	}
	var final ParseResponse
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !final.Accepted {
		t.Fatalf("resumed conclusion: status %d accepted %v err %q", resp.StatusCode, final.Accepted, final.Error)
	}
	if final.Bytes != ref.Bytes || final.Tokens != ref.Tokens ||
		final.MaxStackDepth != ref.MaxStackDepth || final.Reports != ref.Reports {
		t.Fatalf("resumed conclusion differs from whole parse:\nresumed: %+v\n  whole: %+v", final, ref)
	}
}

// TestSessionHandoffTornUpload pins the torn-transfer contract: a
// truncated or bit-flipped image is refused 422 and nothing is stored.
func TestSessionHandoffTornUpload(t *testing.T) {
	doc := []byte(lang.JSONSample)
	_, tsA := newHandoffServer(t, lang.JSON())
	sB, tsB := newHandoffServer(t, lang.JSON())

	resp, err := http.Post(tsA.URL+"/v1/parse/JSON?session=torn", "application/octet-stream", bytes.NewReader(doc[:len(doc)/2]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	getResp, err := http.Get(tsA.URL + "/v1/sessions/JSON/torn/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()

	for name, bad := range map[string][]byte{
		"truncated": img[:len(img)/2],
		"bitflip":   append(append([]byte{}, img[:len(img)-3]...), img[len(img)-3]^0x40, img[len(img)-2], img[len(img)-1]),
		"garbage":   []byte("not a checkpoint"),
	} {
		before := corruptTotal(sB)
		if got := putImage(t, tsB, "JSON", "torn", bad).StatusCode; got != http.StatusUnprocessableEntity {
			t.Errorf("%s upload: status %d, want 422", name, got)
		}
		if got := corruptTotal(sB) - before; got != 1 {
			t.Errorf("%s upload: checkpoint_store_corrupt_total rose by %d, want 1", name, got)
		}
	}
	// Nothing was stored: the receiver has no image for the session.
	if keys, _ := sB.st.Checkpoints.Keys(); len(keys) != 0 {
		t.Fatalf("torn uploads left stored checkpoints: %v", keys)
	}
	// And the intact image still lands fine afterwards.
	if got := putImage(t, tsB, "JSON", "torn", img).StatusCode; got != http.StatusOK {
		t.Fatalf("intact upload after torn attempts: status %d, want 200", got)
	}
}

// TestSessionHandoffWrongMachine pins restore-on-wrong-node: an image
// taken on one grammar's machine is refused 410 by a node serving a
// different build — at upload time, before any resume could go wrong.
func TestSessionHandoffWrongMachine(t *testing.T) {
	doc := []byte(lang.JSONSample)
	_, tsA := newHandoffServer(t, lang.JSON())
	// The receiver serves XML under the name... no — it serves both, and
	// the image is PUT under the XML grammar, whose machine fingerprint
	// cannot match a JSON-taken checkpoint.
	_, tsB := newHandoffServer(t, lang.JSON(), lang.XML())

	resp, err := http.Post(tsA.URL+"/v1/parse/JSON?session=wrong", "application/octet-stream", bytes.NewReader(doc[:len(doc)/2]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	getResp, err := http.Get(tsA.URL + "/v1/sessions/JSON/wrong/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()

	put := putImage(t, tsB, "XML", "wrong", img)
	body, _ := io.ReadAll(put.Body)
	if put.StatusCode != http.StatusGone {
		t.Fatalf("wrong-machine upload: status %d (%s), want 410", put.StatusCode, body)
	}
}

// TestReadyzLifecycle pins the readiness state machine: ready while
// serving, unready (503 + Retry-After) after SetReady(false) while
// /healthz stays 200, and unready for good once draining.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})

	check := func(wantStatus int, wantReason string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("/readyz status = %d, want %d", resp.StatusCode, wantStatus)
		}
		var rr ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		if rr.Reason != wantReason {
			t.Fatalf("/readyz reason = %q, want %q", rr.Reason, wantReason)
		}
		if wantStatus != http.StatusOK && resp.Header.Get("Retry-After") == "" {
			t.Fatal("unready /readyz missing Retry-After")
		}
	}

	check(http.StatusOK, "")
	s.SetReady(false)
	check(http.StatusServiceUnavailable, "unready")
	// Liveness is unaffected: the node still parses and reports healthy.
	if resp, pr := postWhole(t, ts, "JSON", []byte(lang.JSONSample)); resp.StatusCode != http.StatusOK || !pr.Accepted {
		t.Fatalf("unready node refused a parse: status %d", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d while merely unready, want 200", hresp.StatusCode)
	}
	s.SetReady(true)
	check(http.StatusOK, "")

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(t.Context()) }()
	<-drainDone
	check(http.StatusServiceUnavailable, "draining")
	// Drain denials carry Retry-After now.
	resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drain denial: status %d Retry-After %q, want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestTraceIDReusedAcrossHop pins the router-hop correlation contract:
// a request arriving with X-Aspen-Trace keeps that ID in its response
// and flight-recorder entry instead of being re-stamped.
func TestTraceIDReusedAcrossHop(t *testing.T) {
	_, ts := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})
	const inbound = "00000000deadbeef"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/parse/JSON", bytes.NewReader([]byte(lang.JSONSample)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != inbound {
		t.Fatalf("response trace ID = %q, want the forwarded %q", got, inbound)
	}
	// A garbage inbound header falls back to a fresh ID, never empty.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/parse/JSON", bytes.NewReader([]byte(lang.JSONSample)))
	req.Header.Set(TraceHeader, "not-hex!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got == "" || got == "not-hex!" {
		t.Fatalf("garbage inbound trace produced %q, want a fresh valid ID", got)
	}
}

// TestSessionCheckpointDelete pins the router's reset verb: DELETE
// discards the durable state (the next chunk starts the session over),
// and deleting an absent checkpoint is an idempotent 200.
func TestSessionCheckpointDelete(t *testing.T) {
	doc := []byte(lang.JSONSample)
	_, ts := newHandoffServer(t, lang.JSON())

	resp, err := http.Post(ts.URL+"/v1/parse/JSON?session=rst", "application/octet-stream", bytes.NewReader(doc[:len(doc)/2]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session chunk: status %d", resp.StatusCode)
	}

	del := func() int {
		req, derr := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/JSON/rst/checkpoint", nil)
		if derr != nil {
			t.Fatal(derr)
		}
		dresp, derr := http.DefaultClient.Do(req)
		if derr != nil {
			t.Fatal(derr)
		}
		io.Copy(io.Discard, dresp.Body)
		dresp.Body.Close()
		return dresp.StatusCode
	}
	if got := del(); got != http.StatusOK {
		t.Fatalf("DELETE with stored checkpoint: status %d, want 200", got)
	}
	if got := del(); got != http.StatusOK {
		t.Fatalf("repeated DELETE: status %d, want idempotent 200", got)
	}
	getResp, err := http.Get(ts.URL + "/v1/sessions/JSON/rst/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("checkpoint GET after delete: status %d, want 404", getResp.StatusCode)
	}

	// The session restarts cleanly: a whole-document feed under the same
	// ID concludes like a fresh parse (no stale half-fed state).
	resp, err = http.Post(ts.URL+"/v1/parse/JSON?session=rst&final=1", "application/octet-stream", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var pr ParseResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !pr.Accepted || pr.Bytes != len(doc) {
		t.Fatalf("post-delete restart: status %d accepted %v bytes %d want %d", resp.StatusCode, pr.Accepted, pr.Bytes, len(doc))
	}
}

// TestSessionEmptyStackImage pins the forged-image contract: an image
// whose machine stack is empty but whose seals were recomputed is
// refused 422 at upload with nothing stored, and a stored one ends its
// session with 410 and is deleted — never a panic on the next chunk.
func TestSessionEmptyStackImage(t *testing.T) {
	doc := []byte(lang.JSONSample)
	s, ts := newHandoffServer(t, lang.JSON())

	resp, err := http.Post(ts.URL+"/v1/parse/JSON?session=a", "application/octet-stream", bytes.NewReader(doc[:len(doc)/2]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	getResp, err := http.Get(ts.URL + "/v1/sessions/JSON/a/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()

	var cp stream.Checkpoint
	if err := cp.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	cp.Exec.Stack = cp.Exec.Stack[:0]
	cp.Exec.Seal()
	cp.Seal()
	forged, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	before := corruptTotal(s)
	put := putImage(t, ts, "JSON", "b", forged)
	body, _ := io.ReadAll(put.Body)
	if put.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty-stack upload: status %d (%s), want 422", put.StatusCode, body)
	}
	if got := corruptTotal(s) - before; got != 1 {
		t.Fatalf("empty-stack upload: checkpoint_store_corrupt_total rose by %d, want 1", got)
	}
	if _, _, err := s.st.Checkpoints.LoadBytes(sessionKey("JSON", "b")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty-stack upload was stored: %v", err)
	}

	// An image that reached the store anyway (written before uploads
	// were checked) ends its session cleanly.
	key := sessionKey("JSON", "c")
	if err := s.st.Checkpoints.SaveBytes(key, forged); err != nil {
		t.Fatal(err)
	}
	// Only the refused restore counts; the fresh restart after it does
	// not.
	for i, want := range []struct{ status, rise int64 }{{http.StatusGone, 1}, {http.StatusOK, 0}} {
		before := corruptTotal(s)
		resp, err := http.Post(ts.URL+"/v1/parse/JSON?session=c", "application/octet-stream", bytes.NewReader(doc[:len(doc)/2]))
		if err != nil {
			t.Fatalf("chunk %d on a stored empty-stack image: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if int64(resp.StatusCode) != want.status {
			t.Fatalf("chunk %d on a stored empty-stack image: status %d (%s), want %d", i, resp.StatusCode, body, want.status)
		}
		if got := corruptTotal(s) - before; got != want.rise {
			t.Fatalf("chunk %d on a stored empty-stack image: checkpoint_store_corrupt_total rose by %d, want %d", i, got, want.rise)
		}
	}
}
