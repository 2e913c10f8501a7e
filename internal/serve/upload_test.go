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

	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/mnrl"
	"aspen/internal/store"
	"aspen/internal/telemetry"
)

// Upload fixtures: the (ab)* machine in .pda form (proven depth 1) and
// a left-recursive list grammar (finite LR stack depth).
const uploadPDA = `
[States]
q0 q1
End
[Sigma]
a b
End
[Stack Sigma]
A
End
[Rules]
q0, a, epsilon, A, q1
q1, b, A, epsilon, q0
End
[Start]
q0
End
[Accept]
q0
End
`

const uploadGrammar = `
%name List
%token A
%start S
S : S A | A ;
%lex A a
`

func uploadMNRLSource(t *testing.T) string {
	t.Helper()
	d := &core.DPDA{
		Name: "alt", NumStates: 2, Start: 0,
		Accept: map[int]bool{0: true},
		Trans: []core.DPDATransition{
			{From: 0, Input: 'a', StackTop: core.BottomOfStack, To: 1,
				Op: core.StackOp{Push: 1, HasPush: true}},
			{From: 1, Input: 'b', StackTop: 1, To: 0,
				Op: core.StackOp{Pop: 1}},
		},
	}
	m, err := d.ToHomogeneous()
	if err != nil {
		t.Fatal(err)
	}
	data, err := mnrl.ExportHDPDA(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// postUpload sends an upload op and returns the status with the raw
// response body.
func postUpload(t *testing.T, ts *httptest.Server, name, format, source string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(adminRequest{Op: "upload", Grammar: name, Format: format, Source: source})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/admin/grammars", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// postRaw is postWhole without response decoding: the raw bytes, for
// byte-identical comparisons across restarts and nodes.
func postRaw(t *testing.T, ts *httptest.Server, grammar string, doc []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/parse/"+grammar, "application/octet-stream", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// canonicalAnswer strips the wall-clock timing fields from a parse
// response, leaving only the machine-determined payload: two runs of
// the same machine over the same input must agree on every remaining
// byte.
func canonicalAnswer(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parse response not JSON: %v: %s", err, raw)
	}
	delete(m, "queueNs")
	delete(m, "parseNs")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUploadAdmitServeRestart is the upload round-trip: one machine per
// format admitted over HTTP, served, then the store is closed without
// ceremony and reopened — the journal must replay every admission
// identically (same fingerprint, byte-identical answers).
func TestUploadAdmitServeRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Options{Languages: []*lang.Language{lang.JSON()}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())

	uploads := []struct {
		name, format, source string
		wantBound            int
	}{
		{"alt-pda", "pda", uploadPDA, 1},
		{"alt-mnrl", "mnrl", uploadMNRLSource(t), 1},
		{"list", "grammar", uploadGrammar, 0 /* any positive */},
	}
	for _, u := range uploads {
		status, raw := postUpload(t, ts, u.name, u.format, u.source)
		if status != http.StatusOK {
			t.Fatalf("upload %s: status %d: %s", u.name, status, raw)
		}
		var ar AdminResponse
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Fatal(err)
		}
		if !ar.Admitted || ar.StackBound <= 0 {
			t.Fatalf("upload %s: admitted=%v bound=%d", u.name, ar.Admitted, ar.StackBound)
		}
		if u.wantBound != 0 && ar.StackBound != u.wantBound {
			t.Errorf("upload %s: bound %d, want %d", u.name, ar.StackBound, u.wantBound)
		}
	}

	// The admitted machines serve, and report their provenance.
	docs := map[string][][]byte{
		"alt-pda":  {[]byte("abab"), []byte("aab"), []byte("")},
		"alt-mnrl": {[]byte("ab"), []byte("ba")},
		"list":     {[]byte("aaaa"), []byte("")},
	}
	before := map[string][]byte{}
	for name, inputs := range docs {
		for i, doc := range inputs {
			status, raw := postRaw(t, ts, name, doc)
			if status != http.StatusOK {
				t.Fatalf("parse %s[%d]: status %d: %s", name, i, status, raw)
			}
			before[fmt.Sprintf("%s/%d", name, i)] = canonicalAnswer(t, raw)
		}
	}
	fps := map[string]string{}
	for _, gi := range s1.Grammars() {
		fps[gi.Name] = gi.Fingerprint
		if gi.Name != "JSON" && (gi.Format == "" || gi.StackBound <= 0) {
			t.Errorf("grammar %s: format %q stackBound %d not surfaced", gi.Name, gi.Format, gi.StackBound)
		}
	}
	// Per-format admission counters moved.
	snap := s1.Registry().Snapshot()
	for _, format := range []string{"pda", "mnrl", "grammar"} {
		k := telemetry.LabeledName("admit_admitted_total", "format", format)
		if snap.Counters[k] != 1 {
			t.Errorf("%s = %d, want 1", k, snap.Counters[k])
		}
	}

	// Unceremonious shutdown: the HTTP listener dies and the store is
	// reopened from disk. Every append was fsync'd at the commit point,
	// so the journal state is exactly what a kill -9 would leave.
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := New(Options{Languages: []*lang.Language{lang.JSON()}, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	for _, gi := range s2.Grammars() {
		if fps[gi.Name] == "" {
			t.Errorf("grammar %s appeared from nowhere after restart", gi.Name)
			continue
		}
		if gi.Fingerprint != fps[gi.Name] {
			t.Errorf("grammar %s: fingerprint %s after restart, was %s", gi.Name, gi.Fingerprint, fps[gi.Name])
		}
	}
	if len(s2.Grammars()) != len(fps) {
		t.Fatalf("membership %v after restart, want %d tenants", grammarNames(s2.Grammars()), len(fps))
	}
	for name, inputs := range docs {
		for i, doc := range inputs {
			status, raw := postRaw(t, ts2, name, doc)
			if status != http.StatusOK {
				t.Fatalf("parse %s[%d] after restart: status %d", name, i, status)
			}
			if got := canonicalAnswer(t, raw); !bytes.Equal(got, before[fmt.Sprintf("%s/%d", name, i)]) {
				t.Errorf("parse %s[%d]: answer changed across restart:\n before: %s\n after:  %s",
					name, i, before[fmt.Sprintf("%s/%d", name, i)], got)
			}
		}
	}
}

// TestUploadRejectionDiagnostics pins the hostile-upload contract: each
// rejected upload answers 422 with machine-readable diagnostics naming
// the check that fired, nothing is journaled or loaded, the rejection
// counters move, and the server keeps serving throughout.
func TestUploadRejectionDiagnostics(t *testing.T) {
	s, ts := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})

	unbounded := `
[States]
q0 q1
End
[Sigma]
a b
End
[Stack Sigma]
A
End
[Rules]
q0, a, epsilon, A, q0
q0, b, A, epsilon, q1
q1, b, A, epsilon, q1
End
[Start]
q0
End
[Accept]
q1
End
`
	cases := []struct {
		name, format, source, check string
	}{
		{"unbounded", "pda", unbounded, "depth"},
		{"torn", "pda", "[States]\nq0\n", "parse"},
		{"garbage", "mnrl", `{"nodes": [`, "parse"},
		{"ambiguous", "grammar", "%name A\n%token A\n%start S\nS : A | B ;\nB : A ;\n%lex A a\n", "determinism"},
	}
	for _, c := range cases {
		status, raw := postUpload(t, ts, c.name, c.format, c.source)
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("hostile %s: status %d, want 422: %s", c.name, status, raw)
		}
		var rr RejectionResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("hostile %s: body not machine-readable: %v: %s", c.name, err, raw)
		}
		if rr.Admitted || len(rr.Diagnostics) == 0 {
			t.Fatalf("hostile %s: admitted=%v diagnostics=%d", c.name, rr.Admitted, len(rr.Diagnostics))
		}
		if rr.Diagnostics[0].Check != c.check {
			t.Errorf("hostile %s: rejected by %q, want %q (%s)",
				c.name, rr.Diagnostics[0].Check, c.check, rr.Diagnostics[0].Message)
		}
		// Nothing loaded; serving unaffected.
		if resp, pr := postWhole(t, ts, "JSON", []byte(`{"k": [1]}`)); resp.StatusCode != 200 || !pr.Accepted {
			t.Fatalf("JSON parse broken after hostile %s: %d", c.name, resp.StatusCode)
		}
	}
	if got := grammarNames(s.Grammars()); len(got) != 1 || got[0] != "JSON" {
		t.Fatalf("hostile uploads mutated the registry: %v", got)
	}
	snap := s.Registry().Snapshot()
	for check, want := range map[string]int64{"depth": 1, "parse": 2, "determinism": 1} {
		k := telemetry.LabeledName("admit_rejected_total", "check", check)
		if snap.Counters[k] != want {
			t.Errorf("%s = %d, want %d", k, snap.Counters[k], want)
		}
	}
	for _, format := range []string{"pda", "mnrl", "grammar"} {
		k := telemetry.LabeledName("admit_admitted_total", "format", format)
		if snap.Counters[k] != 0 {
			t.Errorf("%s = %d, want 0", k, snap.Counters[k])
		}
	}
}

// An upload whose tokenizer's DFA passes the determinization cap
// answers 422 with a tokenizer diagnostic and loads nothing: the DFA is
// the only lexing path, so there is no slower one to serve it on.
func TestUploadLexerBlowupIs422(t *testing.T) {
	s, ts := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})
	src := "%name Blowup\n%token A\n%start S\nS : A ;\n%lex A [ab]*a" + strings.Repeat("[ab]", 13) + "\n"
	status, raw := postUpload(t, ts, "Blowup", "grammar", src)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", status, raw)
	}
	var rr RejectionResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("body not machine-readable: %v: %s", err, raw)
	}
	if rr.Admitted || len(rr.Diagnostics) == 0 {
		t.Fatalf("admitted=%v diagnostics=%d", rr.Admitted, len(rr.Diagnostics))
	}
	if d := rr.Diagnostics[0]; d.Check != "parse" || !strings.HasPrefix(d.Message, "tokenizer: ") {
		t.Errorf("rejected by %q: %s; want a parse-check tokenizer diagnostic", d.Check, d.Message)
	}
	if got := grammarNames(s.Grammars()); len(got) != 1 || got[0] != "JSON" {
		t.Fatalf("rejected upload mutated the registry: %v", got)
	}
}

// TestConcurrentUploadsRaceReload races tenant uploads against SIGHUP
// reloads, hitless swaps, and a continuous parse load. Nothing may
// drop: every parse answers 200, every upload eventually lands, and the
// journal the race leaves behind replays cleanly (the replay path
// enforces strict sequence ordering, so a torn or reordered append
// would fail the reopen).
func TestConcurrentUploadsRaceReload(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Options{Languages: []*lang.Language{lang.JSON()}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())

	const uploaders = 4
	errs := make(chan error, 64)
	var mut sync.WaitGroup
	for i := 0; i < uploaders; i++ {
		mut.Add(1)
		go func(i int) {
			defer mut.Done()
			name := fmt.Sprintf("tenant-%d", i)
			status, raw := postUpload(t, ts, name, "pda", uploadPDA)
			if status != http.StatusOK {
				errs <- fmt.Errorf("upload %s: status %d: %s", name, status, raw)
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		mut.Add(1)
		go func() {
			defer mut.Done()
			if _, err := s1.Reload(); err != nil {
				errs <- fmt.Errorf("reload: %w", err)
			}
		}()
		mut.Add(1)
		go func() {
			defer mut.Done()
			if err := s1.SwapGrammar("JSON"); err != nil {
				errs <- fmt.Errorf("swap: %w", err)
			}
		}()
	}
	// Continuous load against the stable tenant: zero drops allowed
	// while the mutations churn.
	stopLoad := make(chan struct{})
	var load sync.WaitGroup
	load.Add(1)
	go func() {
		defer load.Done()
		doc := []byte(`[1, [2, [3]]]`)
		for {
			select {
			case <-stopLoad:
				return
			default:
			}
			status, _ := postRaw(t, ts, "JSON", doc)
			if status != http.StatusOK {
				errs <- fmt.Errorf("JSON parse dropped during race: status %d", status)
				return
			}
		}
	}()
	mut.Wait()
	close(stopLoad)
	load.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Converged: JSON plus every tenant.
	got := grammarNames(s1.Grammars())
	if len(got) != 1+uploaders {
		t.Fatalf("registry did not converge: %v", got)
	}
	// All uploaded tenants serve.
	for i := 0; i < uploaders; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if status, raw := postRaw(t, ts, name, []byte("abab")); status != http.StatusOK {
			t.Errorf("tenant %s does not serve after race: %d %s", name, status, raw)
		}
	}

	// The journal the race wrote replays cleanly and strictly in order.
	ts.Close()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("journal left by the race does not replay: %v", err)
	}
	defer st2.Close()
	seq := uint64(0)
	for _, r := range st2.Replay.Records {
		if r.Seq != seq+1 {
			t.Fatalf("journal sequence gap: %d after %d", r.Seq, seq)
		}
		seq = r.Seq
	}
	s2, err := New(Options{Languages: []*lang.Language{lang.JSON()}, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if got := grammarNames(s2.Grammars()); len(got) != 1+uploaders {
		t.Fatalf("replayed registry %v, want %d tenants", got, 1+uploaders)
	}
}
