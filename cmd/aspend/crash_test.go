// Crash-chaos harness: these tests drive the real aspend binary as a
// child process — build, boot, traffic, kill -9 mid-load, restart —
// and pin the durability contract end to end:
//
//   - a SIGKILLed daemon restarted on the same -state-dir replays its
//     registry journal (admin mutations survive, flags do not override
//     journaled membership) and answers byte-for-byte identically;
//   - durable ?session= parses resume across the kill from the last
//     acknowledged checkpoint;
//   - a torn journal tail (a crash mid-append) is truncated on replay,
//     never trusted and never fatal;
//   - SIGHUP hitlessly reloads every grammar in place;
//   - bad flag values exit 2 with a one-line error.
//
// Unit tests against serve.Server's handler cannot see any of this:
// process death and fsync'd state only exist across real exec
// boundaries.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"aspen/internal/lang"
	"aspen/internal/store"
)

var aspendBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aspend-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	aspendBin = filepath.Join(dir, "aspend")
	if out, err := exec.Command("go", "build", "-o", aspendBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building aspend: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one running aspend child process.
type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	addr    string
	logPath string
	waitErr chan error
}

var listenRe = regexp.MustCompile(`listening on http://(\S+)`)

// startDaemon boots the built binary on an ephemeral port and waits
// until it both announces its address and answers /healthz.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "aspend.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(aspendBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatalf("starting aspend: %v", err)
	}
	logf.Close()
	d := &daemon{t: t, cmd: cmd, logPath: logPath, waitErr: make(chan error, 1)}
	go func() { d.waitErr <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		select {
		case <-d.waitErr:
		case <-time.After(10 * time.Second):
		}
	})

	deadline := time.Now().Add(30 * time.Second)
	for d.addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; log:\n%s", d.log())
		}
		select {
		case err := <-d.waitErr:
			t.Fatalf("daemon exited during startup (%v); log:\n%s", err, d.log())
		default:
		}
		if m := listenRe.FindStringSubmatch(d.log()); m != nil {
			d.addr = m[1]
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	for {
		resp, err := http.Get(d.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never became reachable: %v; log:\n%s", err, d.log())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return d
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) log() string {
	b, _ := os.ReadFile(d.logPath)
	return string(b)
}

// kill9 SIGKILLs the daemon — no drain, no fsync beyond what already
// happened — and waits for the process to be reaped.
func (d *daemon) kill9() {
	d.t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		d.t.Fatalf("kill -9: %v", err)
	}
	select {
	case <-d.waitErr:
	case <-time.After(10 * time.Second):
		d.t.Fatal("daemon did not die after SIGKILL")
	}
}

// post sends body to path and returns the status and response body.
func (d *daemon) post(path string, body []byte) (int, []byte) {
	d.t.Helper()
	resp, err := http.Post(d.url(path), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		d.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, out
}

func (d *daemon) get(path string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Get(d.url(path))
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// admin posts one registry mutation and requires success.
func (d *daemon) admin(op, grammar string) {
	d.t.Helper()
	body, _ := json.Marshal(map[string]string{"op": op, "grammar": grammar})
	status, out := d.post("/v1/admin/grammars", body)
	if status != http.StatusOK {
		d.t.Fatalf("admin %s %s: status %d: %s", op, grammar, status, out)
	}
}

// healthGrammars returns the grammar membership /healthz reports.
func (d *daemon) healthGrammars() []string {
	d.t.Helper()
	status, out := d.get("/healthz")
	if status != http.StatusOK {
		d.t.Fatalf("/healthz: status %d: %s", status, out)
	}
	var h struct {
		Grammars []string `json:"grammars"`
	}
	if err := json.Unmarshal(out, &h); err != nil {
		d.t.Fatalf("/healthz: %v: %s", err, out)
	}
	return h.Grammars
}

// normalize strips the fields that legitimately vary between runs
// (wall-clock timings, session bookkeeping) and re-marshals with
// sorted keys, so two answers can be compared byte for byte.
func normalize(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("normalize: %v: %s", err, body)
	}
	delete(m, "queueNs")
	delete(m, "parseNs")
	delete(m, "session")
	delete(m, "partial")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// dropScanCycles removes the lexScanCycles field from an already
// normalized answer (it varies with chunk boundaries, see the session
// comparison below).
func dropScanCycles(t *testing.T, norm string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(norm), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "lexScanCycles")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// parseNormalized runs one parse and returns the normalized answer.
func parseNormalized(t *testing.T, d *daemon, grammar string, doc []byte) string {
	t.Helper()
	status, out := d.post("/v1/parse/"+grammar, doc)
	if status != http.StatusOK {
		t.Fatalf("parse %s: status %d: %s", grammar, status, out)
	}
	return normalize(t, out)
}

var crashDocs = map[string][]byte{
	"JSON":  []byte(lang.JSONSample),
	"XML":   []byte(lang.XMLSample),
	"MiniC": []byte(lang.MiniCSample),
}

// TestCrashRecoveryKill9 is the headline harness: boot with a state
// dir, mutate the registry over the admin API, open a durable session,
// SIGKILL the daemon under live load, restart it with DIFFERENT flags,
// and require (a) the journaled membership — not the flags — to be
// serving, (b) byte-identical normalized answers, and (c) the session
// to finish from its pre-kill checkpoint.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	stateDir := t.TempDir()
	d1 := startDaemon(t, "-state-dir", stateDir, "-langs", "JSON,XML")

	// Registry mutation that exists only in the journal: MiniC was not
	// on the command line.
	d1.admin("add", "MiniC")

	// Ground truth, recorded before the crash.
	want := make(map[string]string)
	for g, doc := range crashDocs {
		want[g] = parseNormalized(t, d1, g, doc)
	}

	// Open a durable session and checkpoint the first half of the
	// document. The 200 acknowledges an fsync'd checkpoint, so the
	// prefix must survive the SIGKILL.
	doc := crashDocs["JSON"]
	half := len(doc) / 2
	status, out := d1.post("/v1/parse/JSON?session=boot", doc[:half])
	if status != http.StatusOK {
		t.Fatalf("session first half: status %d: %s", status, out)
	}
	var partial struct {
		Partial bool `json:"partial"`
		Bytes   int  `json:"bytes"`
	}
	if err := json.Unmarshal(out, &partial); err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || partial.Bytes != half {
		t.Fatalf("session ack: partial=%v bytes=%d, want partial=true bytes=%d", partial.Partial, partial.Bytes, half)
	}

	// Live load while the axe falls: the kill must land mid-traffic,
	// not on an idle server. Client-side errors are expected — the
	// process dies with requests on the wire.
	stopLoad := make(chan struct{})
	var load sync.WaitGroup
	for i := 0; i < 4; i++ {
		load.Add(1)
		go func() {
			defer load.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := http.Post(d1.url("/v1/parse/JSON"), "application/octet-stream", bytes.NewReader(doc))
				if err != nil {
					return // the daemon died under us — the point
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	d1.kill9()
	close(stopLoad)
	load.Wait()

	// Restart with flags that contradict the journal: -langs asks for
	// JSON only, -verify-mode would default differently. The journal
	// wins on both.
	d2 := startDaemon(t, "-state-dir", stateDir, "-langs", "JSON")
	if !strings.Contains(d2.log(), "replayed") {
		t.Fatalf("restart did not report a journal replay; log:\n%s", d2.log())
	}
	got := d2.healthGrammars()
	if len(got) != 3 || got[0] != "JSON" || got[1] != "XML" || got[2] != "MiniC" {
		t.Fatalf("restored membership = %v, want [JSON XML MiniC]", got)
	}

	// Byte-identical answers after recovery.
	for g, doc := range crashDocs {
		if after := parseNormalized(t, d2, g, doc); after != want[g] {
			t.Fatalf("%s answer changed across crash:\n pre-kill: %s\npost-kill: %s", g, want[g], after)
		}
	}

	// The durable session finishes on the restarted daemon, and the
	// stitched result matches a single whole-document parse.
	status, out = d2.post("/v1/parse/JSON?session=boot&final=1", doc[half:])
	if status != http.StatusOK {
		t.Fatalf("session final half: status %d: %s", status, out)
	}
	// lexScanCycles is a function of chunk boundaries, not durability: a
	// split mid-token costs one handoff re-scan whether or not a crash
	// happened between the chunks. Everything else must match exactly.
	if final, whole := dropScanCycles(t, normalize(t, out)), dropScanCycles(t, want["JSON"]); final != whole {
		t.Fatalf("resumed session answer differs from whole-document parse:\n session: %s\n   whole: %s", final, whole)
	}

	// Replay visibility: the restarted daemon exports its replay count.
	status, metrics := d2.get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	if m := regexp.MustCompile(`(?m)^journal_replay_records (\d+)$`).FindSubmatch(metrics); m == nil || string(m[1]) == "0" {
		t.Fatalf("journal_replay_records missing or zero after replay")
	}
}

// TestTruncatedJournalRecovery injures the journal the way a crash
// mid-append does — a torn trailing record — and requires the restart
// to keep the valid prefix, truncate the tail, and serve.
func TestTruncatedJournalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	stateDir := t.TempDir()
	d1 := startDaemon(t, "-state-dir", stateDir, "-langs", "JSON,XML")
	d1.admin("add", "MiniC")
	d1.kill9()

	journal := filepath.Join(stateDir, store.JournalName)
	info, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := info.Size()
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible torn tail: the frame magic and a few header bytes,
	// cut off where the crash landed.
	if _, err := f.Write([]byte("AJL1\x00\x00\x00")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := startDaemon(t, "-state-dir", stateDir)
	if !strings.Contains(d2.log(), "dropped") {
		t.Fatalf("restart did not report dropping the torn tail; log:\n%s", d2.log())
	}
	if got := d2.healthGrammars(); len(got) != 3 || got[2] != "MiniC" {
		t.Fatalf("membership after torn-tail recovery = %v, want [JSON XML MiniC]", got)
	}
	if status, _ := d2.post("/v1/parse/MiniC", crashDocs["MiniC"]); status != http.StatusOK {
		t.Fatalf("parse after torn-tail recovery: status %d", status)
	}
	// The replay truncated the file back to its valid prefix.
	if info, err = os.Stat(journal); err != nil || info.Size() != goodSize {
		t.Fatalf("journal size after recovery = %d (err %v), want %d", info.Size(), err, goodSize)
	}
}

// TestSIGHUPReload exercises the binary-level hitless reload: SIGHUP
// must swap every grammar and the daemon must keep answering.
func TestSIGHUPReload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real daemon")
	}
	d := startDaemon(t, "-langs", "JSON,XML")
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(d.log(), "reload: swapped 2 grammar(s)") {
		if time.Now().After(deadline) {
			t.Fatalf("SIGHUP reload never reported; log:\n%s", d.log())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status, _ := d.post("/v1/parse/JSON", crashDocs["JSON"]); status != http.StatusOK {
		t.Fatalf("parse after SIGHUP: status %d", status)
	}
	status, metrics := d.get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	if !regexp.MustCompile(`(?m)^reload_swaps_total [1-9]`).Match(metrics) {
		t.Fatal("reload_swaps_total not incremented after SIGHUP")
	}
}

// TestFlagValidationExit2 pins the operator contract for bad flag
// values: exit code 2 and exactly one line on stderr.
func TestFlagValidationExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real daemon binary")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"verify-mode", []string{"-verify-mode", "bogus"}, "bogus"},
		{"langs", []string{"-langs", "JSON,Klingon"}, "Klingon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(aspendBin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit code = %v, want 2; stderr: %s", err, stderr.String())
			}
			msg := strings.TrimRight(stderr.String(), "\n")
			if strings.Contains(msg, "\n") {
				t.Fatalf("stderr is not one line:\n%s", stderr.String())
			}
			if !strings.HasPrefix(msg, "aspend: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr = %q, want one aspend: line mentioning %q", msg, tc.want)
			}
		})
	}
}
