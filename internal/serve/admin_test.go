package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aspen/internal/lang"
	"aspen/internal/store"
	"aspen/internal/verify"
)

func postAdmin(t *testing.T, ts *httptest.Server, body string) (int, AdminResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/admin/grammars", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar AdminResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ar
}

func grammarNames(infos []GrammarInfo) []string {
	names := make([]string, len(infos))
	for i, gi := range infos {
		names[i] = gi.Name
	}
	return names
}

// TestAdminGrammarAPI walks the mutation surface end to end: add a new
// tenant (repartitioning the fabric), reject duplicates/unknowns with
// the right statuses, swap and reload hitlessly, remove, and refuse to
// remove the last grammar.
func TestAdminGrammarAPI(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON(), lang.XML()},
	})

	// Add MiniC (resolved via the built-in resolver).
	status, ar := postAdmin(t, ts, `{"op":"add","grammar":"MiniC"}`)
	if status != http.StatusOK {
		t.Fatalf("add MiniC: status %d", status)
	}
	if got := grammarNames(ar.Grammars); len(got) != 3 || got[2] != "MiniC" {
		t.Fatalf("after add: grammars %v", got)
	}
	// Membership changes repartition: every bank must have an owner and
	// shares must be contiguous and disjoint.
	lo := 0
	for _, gi := range s.Grammars() {
		g := s.grammar(gi.Name)
		if g.bankLo != lo {
			t.Fatalf("tenant %s starts at bank %d, want %d", gi.Name, g.bankLo, lo)
		}
		lo = g.bankHi
	}
	if lo != s.Fabric().Total() {
		t.Fatalf("partition covers %d of %d banks", lo, s.Fabric().Total())
	}

	// The new tenant serves.
	resp, pr := postWhole(t, ts, "MiniC", []byte("int main() { return 0; }"))
	if resp.StatusCode != http.StatusOK || !pr.Accepted {
		t.Fatalf("MiniC parse after add: status %d accepted %v", resp.StatusCode, pr.Accepted)
	}

	// Failure statuses.
	if status, _ := postAdmin(t, ts, `{"op":"add","grammar":"MiniC"}`); status != http.StatusConflict {
		t.Fatalf("duplicate add: status %d, want 409", status)
	}
	if status, _ := postAdmin(t, ts, `{"op":"add","grammar":"Klingon"}`); status != http.StatusNotFound {
		t.Fatalf("unknown add: status %d, want 404", status)
	}
	if status, _ := postAdmin(t, ts, `{"op":"swap","grammar":"Klingon"}`); status != http.StatusNotFound {
		t.Fatalf("unknown swap: status %d, want 404", status)
	}
	if status, _ := postAdmin(t, ts, `{"op":"conjure","grammar":"JSON"}`); status != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", status)
	}
	if status, _ := postAdmin(t, ts, `{"op":`); status != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", status)
	}

	// Swap rebuilds the entry (new pointer, same bank range).
	before := s.grammar("JSON")
	if status, _ := postAdmin(t, ts, `{"op":"swap","grammar":"JSON"}`); status != http.StatusOK {
		t.Fatal("swap JSON failed")
	}
	after := s.grammar("JSON")
	if after == before {
		t.Fatal("swap did not replace the entry")
	}
	if after.bankLo != before.bankLo || after.bankHi != before.bankHi {
		t.Fatalf("swap moved the bank range: [%d,%d) → [%d,%d)",
			before.bankLo, before.bankHi, after.bankLo, after.bankHi)
	}

	// Reload swaps every entry.
	status, ar = postAdmin(t, ts, `{"op":"reload"}`)
	if status != http.StatusOK || ar.Swapped != 3 {
		t.Fatalf("reload: status %d swapped %d, want 200/3", status, ar.Swapped)
	}
	if s.grammar("JSON") == after {
		t.Fatal("reload did not replace entries")
	}

	// Remove down to one, then refuse the last.
	if status, _ := postAdmin(t, ts, `{"op":"remove","grammar":"MiniC"}`); status != http.StatusOK {
		t.Fatal("remove MiniC failed")
	}
	if status, _ := postAdmin(t, ts, `{"op":"remove","grammar":"XML"}`); status != http.StatusOK {
		t.Fatal("remove XML failed")
	}
	if status, _ := postAdmin(t, ts, `{"op":"remove","grammar":"JSON"}`); status != http.StatusConflict {
		t.Fatalf("remove last grammar: status %d, want 409", status)
	}
	if resp, _ := postWhole(t, ts, "XML", []byte("<a/>")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed grammar answered %d, want 404", resp.StatusCode)
	}
}

// TestHitlessSwapZeroDrop is the hitless-reload acceptance test: under
// continuous concurrent load, repeated entry swaps (the SIGHUP path)
// drop and mis-route nothing — every single request answers 200 with
// the right grammar's verdict, while the serving entry is replaced
// under it dozens of times.
func TestHitlessSwapZeroDrop(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON(), lang.XML()},
	})
	doc := []byte(`{"k": [1, 2, {"ok": true}]}`)

	const clients = 8
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader(doc))
				if err != nil {
					errs <- err.Error()
					return
				}
				var pr ParseResponse
				derr := json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil || !pr.Accepted || pr.Grammar != "JSON" {
					errs <- resp.Status + " grammar=" + pr.Grammar
					return
				}
			}
		}()
	}

	const swaps = 40
	for i := 0; i < swaps; i++ {
		var err error
		if i%4 == 3 {
			_, err = s.Reload()
		} else {
			err = s.SwapGrammar("JSON")
		}
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopLoad)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatalf("request dropped or mis-routed during swaps: %s", e)
	default:
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["reload_swaps_total"]; got != swaps {
		t.Errorf("reload_swaps_total = %d, want %d", got, swaps)
	}
	if snap.Counters["serve_JSON_requests_total"] < 10 {
		t.Fatalf("load generator barely ran: %d requests", snap.Counters["serve_JSON_requests_total"])
	}
	// Retired entries must drain: after the load stops, every old
	// entry's inflight hits zero and its retirement wait ends.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryDurableRestart: mutations journaled by one server are the
// boot state of the next — the journal, not the flags, decides
// membership and verify mode after the first boot.
func TestRegistryDurableRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Options{
		Languages: []*lang.Language{lang.JSON(), lang.XML()},
		Store:     st,
		Chaos:     &ChaosOptions{Verify: verify.ModeDMR},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.AddGrammar("MiniC"); err != nil {
		t.Fatal(err)
	}
	if err := s1.RemoveGrammar("XML"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with *different* flags: the journal must win.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := New(Options{
		Languages: []*lang.Language{lang.JSON(), lang.XML(), lang.DOT()},
		Store:     st2,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := grammarNames(s2.Grammars())
	want := []string{"JSON", "MiniC"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("restarted membership %v, want %v", got, want)
	}
	if mode := verifyModeOf(s2.opts.Chaos); mode != verify.ModeDMR {
		t.Fatalf("restarted verify mode %v, want dmr", mode)
	}
	if n := s2.Registry().Snapshot().Gauges["journal_replay_records"]; n == 0 {
		t.Fatal("journal_replay_records gauge not set on replayed boot")
	}
	// And the restarted server serves its journaled registry.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	if resp, pr := postWhole(t, ts, "MiniC", []byte("int x() { return 1; }")); resp.StatusCode != 200 || !pr.Accepted {
		t.Fatalf("MiniC after restart: %d accepted=%v", resp.StatusCode, pr.Accepted)
	}
	if resp, _ := postWhole(t, ts, "XML", []byte("<a/>")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed XML resurrected after restart: %d", resp.StatusCode)
	}
}

// TestDrainStopsControlPlane is the post-drain regression: a Drain that
// lands during an active breaker half-open probe terminates cleanly —
// no goroutine left waiting — and mutations after Drain are rejected
// before any journal write (the journal byte size must not move).
func TestDrainStopsControlPlane(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON()},
		Store:     st,
		Chaos: &ChaosOptions{
			FaultRate:        1, // unrecoverable: every request exhausts replay
			FaultSeed:        7,
			MaxAttempts:      2,
			BackoffBase:      50 * time.Microsecond,
			BackoffCap:       time.Millisecond,
			BreakerThreshold: 1,
			BreakerCooldown:  50 * time.Millisecond,
			Verify:           verify.ModeTMR,
		},
	})
	doc := []byte(`[1, 2, 3]`)
	// Open the breaker, wait out the cooldown, then launch the half-open
	// probe with a body that stalls until after Drain is underway.
	if resp, _ := postWhole(t, ts, "JSON", doc); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exhaustion status %d, want 503", resp.StatusCode)
	}
	time.Sleep(80 * time.Millisecond)

	pr, pw := io.Pipe()
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		resp, err := http.Post(ts.URL+"/v1/parse/JSON", "application/octet-stream", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(30 * time.Millisecond) // probe is mid-body, holding the claim

	sizeBefore, err := st.Journal.Size()
	if err != nil {
		t.Fatal(err)
	}
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // drain is now waiting on the probe
	pw.Write(doc)
	pw.Close()
	<-probeDone
	if err := <-drainDone; err != nil {
		t.Fatalf("drain during half-open probe: %v", err)
	}

	// Post-drain mutations are rejected before touching the journal.
	if err := s.AddGrammar("MiniC"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain add = %v, want ErrDraining", err)
	}
	if _, err := s.Reload(); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain reload = %v, want ErrDraining", err)
	}
	if got, err := st.Journal.Size(); err != nil || got != sizeBefore {
		t.Fatalf("journal grew after drain: %d → %d bytes", sizeBefore, got)
	}

	// No goroutine left waiting: the probe's unit, the breaker claim,
	// and every retirement wait are released. Allow the runtime a
	// moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+8 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+8 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after drain: %d > baseline %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestSessionResumeAcrossServers: a durable session started on one
// server concludes on a second one sharing the state directory, with
// the same verdict and totals as an uninterrupted parse — the
// API-level half of kill -9 recovery.
func TestSessionResumeAcrossServers(t *testing.T) {
	doc := []byte(`{"a": [1, 2, 3], "b": {"c": "deep", "d": [true, false, null]}}`)
	half := len(doc) / 2

	// Ground truth: the whole document in one request, no store.
	_, plain := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})
	_, want := postWhole(t, plain, "JSON", doc)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}, Store: st})
	resp, err := http.Post(ts1.URL+"/v1/parse/JSON?session=job1", "application/octet-stream", bytes.NewReader(doc[:half]))
	if err != nil {
		t.Fatal(err)
	}
	var part ParseResponse
	if err := json.NewDecoder(resp.Body).Decode(&part); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !part.Partial || part.Bytes != half {
		t.Fatalf("partial chunk: status %d partial %v bytes %d (want %d)",
			resp.StatusCode, part.Partial, part.Bytes, half)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same state directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, ts2 := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}, Store: st2})
	resp, err = http.Post(ts2.URL+"/v1/parse/JSON?session=job1&final=1", "application/octet-stream", bytes.NewReader(doc[half:]))
	if err != nil {
		t.Fatal(err)
	}
	var got ParseResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final chunk: status %d", resp.StatusCode)
	}
	if !got.Accepted || got.Bytes != want.Bytes || got.Tokens != want.Tokens ||
		got.Cycles != want.Cycles || got.MaxStackDepth != want.MaxStackDepth {
		t.Fatalf("resumed session diverged from uninterrupted parse:\n got %+v\nwant %+v", got, want)
	}
	// The concluded session's image is spent.
	keys, err := st2.Checkpoints.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("concluded session left images behind: %v", keys)
	}
}

// TestSessionRefusesCorruptImage: a bit-flipped stored checkpoint is
// answered 410 + checkpoint_store_corrupt_total, never resumed or
// shipped.
func TestSessionRefusesCorruptImage(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, ts := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}, Store: st})
	doc := []byte(`{"k": [1, 2, 3]}`)
	resp, err := http.Post(ts.URL+"/v1/parse/JSON?session=frag", "application/octet-stream", bytes.NewReader(doc[:7]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Flip one byte of the stored image.
	flip := func(id string) {
		t.Helper()
		path := filepath.Join(dir, "checkpoints", "sess-JSON-"+id+".ckpt")
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		img[len(img)/2] ^= 0x20
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip("frag")

	resp, err = http.Post(ts.URL+"/v1/parse/JSON?session=frag&final=1", "application/octet-stream", bytes.NewReader(doc[7:]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("corrupt session image: status %d, want 410", resp.StatusCode)
	}
	if got := corruptTotal(s); got != 1 {
		t.Fatalf("checkpoint_store_corrupt_total = %d, want 1", got)
	}

	// The handoff GET refuses to ship a corrupt image, and counts it.
	resp, err = http.Post(ts.URL+"/v1/parse/JSON?session=ship", "application/octet-stream", bytes.NewReader(doc[:7]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	flip("ship")
	resp, err = http.Get(ts.URL + "/v1/sessions/JSON/ship/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("corrupt image GET: status %d, want 410", resp.StatusCode)
	}
	if got := corruptTotal(s); got != 2 {
		t.Fatalf("checkpoint_store_corrupt_total = %d after the GET, want 2", got)
	}

	// Concurrent chunks for one session conflict.
	if status := func() int {
		r1, w1 := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.Post(ts.URL+"/v1/parse/JSON?session=dup", "application/octet-stream", r1)
			if err == nil {
				resp.Body.Close()
			}
		}()
		w1.Write([]byte("{"))
		time.Sleep(30 * time.Millisecond)
		resp, err := http.Post(ts.URL+"/v1/parse/JSON?session=dup", "application/octet-stream", bytes.NewReader([]byte("}")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		w1.Close()
		<-done
		return resp.StatusCode
	}(); status != http.StatusConflict {
		t.Fatalf("concurrent session chunk: status %d, want 409", status)
	}
}
