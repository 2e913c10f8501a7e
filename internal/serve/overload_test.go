package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"aspen/internal/lang"
	"aspen/internal/store"
	"aspen/internal/telemetry"
)

// latencyStream generates a deterministic mix of good and bad latency
// samples from a splitmix64 walk: roughly one sample in four exceeds
// the target.
func latencyStream(seed uint64, n int, targetNS int64) []int64 {
	out := make([]int64, n)
	z := seed
	for i := range out {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if x%4 == 0 {
			out[i] = targetNS * 2 // bad sample
		} else {
			out[i] = targetNS / 4 // good sample
		}
	}
	return out
}

// TestAIMDDeterminism: the limiter's decision sequence is a pure
// function of the observation stream — two limiters fed the same
// seeded stream take identical trajectories, event for event.
func TestAIMDDeterminism(t *testing.T) {
	const target = 100 * time.Millisecond
	stream := latencyStream(42, 4096, target.Nanoseconds())
	a, b := newAIMD(target, 32), newAIMD(target, 32)
	for i, lat := range stream {
		ea, eb := a.observe(lat), b.observe(lat)
		if ea != eb {
			t.Fatalf("sample %d: event diverged: %v vs %v", i, ea, eb)
		}
		if la, lb := a.limitNow(), b.limitNow(); la != lb {
			t.Fatalf("sample %d: limit diverged: %d vs %d", i, la, lb)
		}
	}
	if a.current() != b.current() {
		t.Fatalf("final raw limit diverged: %v vs %v", a.current(), b.current())
	}
}

// TestAIMDConvergesToCeiling: property — from any disturbed state, a
// run of good samples restores the limit to the ceiling within the
// additive-increase bound (one +1 step per limit-many good samples, so
// at most ceiling² samples end to end).
func TestAIMDConvergesToCeiling(t *testing.T) {
	const target = 10 * time.Millisecond
	for seed := uint64(1); seed <= 25; seed++ {
		ceiling := int(2 + seed%31)
		a := newAIMD(target, ceiling)
		// Knock the limit down a seed-dependent number of times.
		for i := uint64(0); i < seed%13; i++ {
			a.observe(target.Nanoseconds() * 3)
		}
		budget := ceiling*ceiling + ceiling
		for i := 0; i < budget; i++ {
			a.observe(target.Nanoseconds() / 2)
		}
		if got := a.limitNow(); got != ceiling {
			t.Fatalf("seed %d: limit %d after %d good samples, want ceiling %d",
				seed, got, budget, ceiling)
		}
	}
}

// TestAIMDCollapseAtFloor: sustained bad samples halve the limit to
// the floor, and every bad sample thereafter reports collapse (the
// brownout trigger) while the limit holds at 1.
func TestAIMDCollapseAtFloor(t *testing.T) {
	const target = 10 * time.Millisecond
	a := newAIMD(target, 16)
	bad := target.Nanoseconds() * 2
	sawCollapse := false
	for i := 0; i < 32; i++ {
		ev := a.observe(bad)
		if a.limitNow() < 1 {
			t.Fatalf("limit fell below floor: %d", a.limitNow())
		}
		if ev == aimdCollapse {
			sawCollapse = true
		} else if sawCollapse {
			t.Fatalf("sample %d: event %v after collapse began", i, ev)
		}
	}
	if !sawCollapse {
		t.Fatal("limiter never collapsed under sustained bad samples")
	}
	if a.limitNow() != 1 {
		t.Fatalf("limit %d at floor, want 1", a.limitNow())
	}
}

// testFlow builds a detached scheduling flow for whitebox wfq tests,
// wide and roomy enough that only the global limit binds.
func testFlow(reg *telemetry.Registry, name string, cost, weight int64) *wfqFlow {
	g := &grammarEntry{name: name, cost: cost}
	g.weight.Store(weight)
	g.m.overloadQueue = reg.Gauge("test_queue_"+name, "")
	g.m.workersEffective = reg.Gauge("test_width_"+name, "")
	return newFlow(g, 64, 64)
}

// park spawns an acquire for f and waits until the scheduler has
// actually queued it, so grant order is deterministic. The returned
// channel yields once the grant lands (after which the waiter holds
// the token until proceed is closed).
func park(t *testing.T, q *wfq, f *wfqFlow, grants chan<- string, proceed <-chan struct{}) {
	t.Helper()
	q.mu.Lock()
	before := len(f.waiters)
	q.mu.Unlock()
	go func() {
		if err := q.acquire(context.Background(), f); err != nil {
			return
		}
		grants <- f.g.name
		<-proceed
		q.release(f)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		n := len(f.waiters)
		q.mu.Unlock()
		if n > before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWFQFairness: with one execution token and a hot tenant four
// requests deep, a quiet tenant's two requests are served interleaved
// — not behind the hot tenant's whole backlog.
func TestWFQFairness(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := newWFQ(newAIMD(time.Second, 1))
	hot := testFlow(reg, "hot", 4, 4)
	quiet := testFlow(reg, "quiet", 4, 4)

	if !q.tryAcquire(hot) {
		t.Fatal("fast path refused the first token")
	}
	grants := make(chan string, 8)
	proceed := make(chan struct{})
	for i := 0; i < 4; i++ {
		park(t, q, hot, grants, proceed)
	}
	park(t, q, quiet, grants, proceed)
	park(t, q, quiet, grants, proceed)

	// A backlogged scheduler must refuse the fast path.
	if q.tryAcquire(hot) {
		t.Fatal("fast path granted past a backlog")
	}

	close(proceed)
	q.release(hot) // return the initial token; grants cascade
	var order []string
	for i := 0; i < 6; i++ {
		select {
		case g := <-grants:
			order = append(order, g)
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d never arrived (order so far %v)", i, order)
		}
	}
	want := []string{"hot", "quiet", "hot", "quiet", "hot", "hot"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// TestWFQWeightedShare: doubling a tenant's weight halves its
// virtual-time charge, so it receives two grants for every one of an
// equal-cost competitor.
func TestWFQWeightedShare(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := newWFQ(newAIMD(time.Second, 1))
	fast := testFlow(reg, "fast", 4, 8) // charge 0.5
	slow := testFlow(reg, "slow", 4, 4) // charge 1.0

	if !q.tryAcquire(slow) {
		t.Fatal("fast path refused the first token")
	}
	grants := make(chan string, 9)
	proceed := make(chan struct{})
	for i := 0; i < 6; i++ {
		park(t, q, fast, grants, proceed)
	}
	for i := 0; i < 3; i++ {
		park(t, q, slow, grants, proceed)
	}
	close(proceed)
	q.release(slow)
	counts := map[string]int{}
	for i := 0; i < 6; i++ { // first six grants
		select {
		case g := <-grants:
			counts[g]++
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d never arrived", i)
		}
	}
	if counts["fast"] != 4 || counts["slow"] != 2 {
		t.Fatalf("first six grants split %v, want fast=4 slow=2", counts)
	}
	for i := 0; i < 3; i++ { // drain the rest
		<-grants
	}
}

// TestWFQCancellation: a canceled waiter leaves the queue cleanly and
// later grants skip it.
func TestWFQCancellation(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := newWFQ(newAIMD(time.Second, 1))
	f := testFlow(reg, "only", 4, 4)
	if !q.tryAcquire(f) {
		t.Fatal("fast path refused the first token")
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- q.acquire(ctx, f) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		n := len(f.waiters)
		q.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("canceled acquire returned %v", err)
	}
	q.mu.Lock()
	waiters, active := len(f.waiters), len(q.active)
	q.mu.Unlock()
	if waiters != 0 || active != 0 {
		t.Fatalf("canceled waiter left state behind: waiters=%d active=%d", waiters, active)
	}
	q.release(f)
	if !q.tryAcquire(f) {
		t.Fatal("token lost after cancellation")
	}
	q.release(f)
}

// flowState reads f's running and waiting counts under the scheduler
// lock.
func flowState(q *wfq, f *wfqFlow) (running, waiting int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return f.running, len(f.waiters)
}

// awaitFlow polls the scheduler until f reaches the given state, so a
// test proceeds on what the scheduler holds rather than on sleeps.
func awaitFlow(t *testing.T, q *wfq, f *wfqFlow, running, waiting int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, w := flowState(q, f)
		if r == running && w == waiting {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flow %s: running=%d waiting=%d, want %d/%d", f.g.name, r, w, running, waiting)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWFQBacklogDoesNotBlockNeighbour: a waiting request holds nothing.
// With one context per tenant and room for one waiter, JSON runs one
// request through an open body and parks a second behind it; XML's
// fabric share is idle, so an XML request must answer while JSON's
// first request is still open.
func TestWFQBacklogDoesNotBlockNeighbour(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages:  []*lang.Language{lang.JSON(), lang.XML()},
		Workers:    1,
		QueueDepth: 1,
	})
	jf := s.grammar("JSON").flow
	post := func(grammar string, body io.Reader, status chan<- int) {
		req, err := http.NewRequest("POST", ts.URL+"/v1/parse/"+grammar, body)
		if err != nil {
			status <- -1
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}

	// JSON request 1 holds JSON's only context through an open body.
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() }) // runs before the server closes
	first := make(chan int, 1)
	go post("JSON", pr, first)
	if _, err := pw.Write([]byte(`{"a": [1, `)); err != nil {
		t.Fatal(err)
	}
	awaitFlow(t, s.sched, jf, 1, 0)
	// JSON request 2 waits behind it: JSON is at its width.
	second := make(chan int, 1)
	go post("JSON", bytes.NewReader([]byte(`[2]`)), second)
	awaitFlow(t, s.sched, jf, 1, 1)

	xml := make(chan int, 1)
	go post("XML", bytes.NewReader([]byte(`<a>x</a>`)), xml)
	select {
	case code := <-xml:
		if code != http.StatusOK {
			t.Fatalf("XML beside JSON's backlog: status %d, want 200", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("XML request blocked behind JSON's backlog")
	}
	select {
	case code := <-first:
		t.Fatalf("first JSON request finished (status %d) before its body closed", code)
	default:
	}

	if _, err := pw.Write([]byte(`2]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	for i, ch := range []chan int{first, second} {
		if code := <-ch; code != http.StatusOK {
			t.Fatalf("JSON request %d: status %d, want 200", i+1, code)
		}
	}
}

// TestWFQWidthShrinkCapsConcurrency: a width shrink caps concurrency
// without evicting anyone. A width-2 flow with two running and one
// waiting is shrunk to 1: the first release must not grant the waiter,
// the second must. Bank kills fired from several goroutines at once
// leave the served width at exactly the surviving capacity.
func TestWFQWidthShrinkCapsConcurrency(t *testing.T) {
	reg := telemetry.NewRegistry()
	q := newWFQ(newAIMD(time.Second, 8))
	f := testFlow(reg, "narrow", 4, 4)
	q.shrink(f, 2)
	for i := 0; i < 2; i++ {
		if !q.tryAcquire(f) {
			t.Fatalf("grant %d refused at width 2", i+1)
		}
	}
	if q.tryAcquire(f) {
		t.Fatal("third grant made at width 2")
	}
	granted := make(chan error, 1)
	go func() { granted <- q.acquire(context.Background(), f) }()
	awaitFlow(t, q, f, 2, 1)

	q.shrink(f, 1)
	q.shrink(f, 2) // a stale, wider capacity from a racing kill
	if got := f.g.m.workersEffective.Value(); got != 1 || f.width.Load() != 1 {
		t.Fatalf("width %d, workers_effective %v after shrinking to 1, want 1 (width never grows)", f.width.Load(), got)
	}
	q.release(f)
	if r, w := flowState(q, f); r != 1 || w != 1 {
		t.Fatalf("after the first release: running=%d waiting=%d, want 1/1 (no grant at width 1)", r, w)
	}
	q.release(f)
	select {
	case err := <-granted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never granted once running fell below the width")
	}
	if r, w := flowState(q, f); r != 1 || w != 0 {
		t.Fatalf("after the second release: running=%d waiting=%d, want 1/0", r, w)
	}
	q.release(f)

	s, err := New(Options{Languages: []*lang.Language{lang.JSON()}})
	if err != nil {
		t.Fatal(err)
	}
	g := s.grammar("JSON")
	const killers, perKiller = 8, 24
	var wg sync.WaitGroup
	for k := 0; k < killers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for b := g.bankLo + k; b < g.bankLo+killers*perKiller; b += killers {
				s.KillBank(b)
			}
		}(k)
	}
	wg.Wait()
	want := min(s.fabric.CapacityInRange(g.bankLo, g.bankHi, g.unitBanks).Contexts, g.workers)
	if want >= g.workers {
		t.Fatalf("kills left the capacity at the provisioned %d; the check needs a shrink", g.workers)
	}
	if got := g.effectiveWorkers(); got != want {
		t.Fatalf("effective workers %d after concurrent kills, want the surviving capacity %d", got, want)
	}
	if got := int(g.m.workersEffective.Value()); got != want {
		t.Fatalf("workers_effective gauge %d after concurrent kills, want %d", got, want)
	}
}

// TestDeadlineShed: once the tenant's ns/byte estimate is warm, a
// request whose predicted cost exceeds the request timeout is shed 429
// with a valid Retry-After — and an undeclared-length request is not.
func TestDeadlineShed(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages:      []*lang.Language{lang.JSON()},
		RequestTimeout: 2 * time.Second,
	})
	g := s.tenants.Load().byName["JSON"]
	// Warm the predictor to a ruinous 1s/byte.
	for i := 0; i < deadlineMinSamples; i++ {
		g.nsPerByte.Observe(1e9)
	}

	doc := jsonDoc(3)
	resp, _ := postWhole(t, ts, "JSON", doc)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("predicted-over-deadline request: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("shed Retry-After %q, want integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	if got := s.m.shedTotal[shedDeadline].Value(); got != 1 {
		t.Fatalf("shed_total{reason=deadline} = %d, want 1", got)
	}

	// No declared length → no prediction basis → never deadline-shed.
	resp, pr := postChunked(t, ts, "JSON", doc, 7)
	if resp.StatusCode != http.StatusOK || !pr.Accepted {
		t.Fatalf("chunked request: status %d accepted %v, want 200 accepted", resp.StatusCode, pr.Accepted)
	}
}

// TestBrownoutLadder: limiter collapse raises the ladder, which sheds
// exactly the lowest-ranked tenant; recovery lowers it and service
// resumes. Brownout is opt-in — the same collapse with the flag off
// sheds nobody.
func TestBrownoutLadder(t *testing.T) {
	langs := []*lang.Language{lang.JSON(), lang.XML()}
	s, ts := newTestServer(t, Options{Languages: langs, Brownout: true})
	snap := s.tenants.Load()
	var shedFirst, protected *grammarEntry
	for _, n := range snap.names {
		g := snap.byName[n]
		if g.shedRank.Load() == 0 {
			shedFirst = g
		} else {
			protected = g
		}
	}
	if shedFirst == nil || protected == nil {
		t.Fatalf("shed ranks not assigned across %v", snap.names)
	}

	// Collapse: bad samples until the ladder engages.
	bad := (s.opts.LatencyTarget + time.Second).Nanoseconds()
	for i := 0; i < 64 && s.BrownoutLevel() == 0; i++ {
		s.observeParse(protected, bad, 0)
	}
	if s.BrownoutLevel() != 1 {
		t.Fatalf("brownout level %d after sustained collapse, want 1", s.BrownoutLevel())
	}

	doc := []byte(`{"k": [1]}`)
	if shedFirst.name == "XML" {
		doc = []byte(`<a>x</a>`)
	}
	resp, err := http.Post(ts.URL+"/v1/parse/"+shedFirst.name, "application/octet-stream", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("browned-out tenant: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
		t.Fatalf("brownout Retry-After %q, want integer in [1,60]", resp.Header.Get("Retry-After"))
	}
	if got := s.m.shedTotal[shedBrownout].Value(); got != 1 {
		t.Fatalf("shed_total{reason=brownout} = %d, want 1", got)
	}
	// The protected tenant still parses.
	pdoc := []byte(`{"k": [1]}`)
	if protected.name == "XML" {
		pdoc = []byte(`<a>x</a>`)
	}
	resp, err = http.Post(ts.URL+"/v1/parse/"+protected.name, "application/octet-stream", bytes.NewReader(pdoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protected tenant during brownout: status %d, want 200", resp.StatusCode)
	}

	// Recovery: good samples walk the limit back up; the first additive
	// increase lowers the ladder.
	good := int64(1)
	for i := 0; i < 64 && s.BrownoutLevel() > 0; i++ {
		s.observeParse(protected, good, 0)
	}
	if s.BrownoutLevel() != 0 {
		t.Fatalf("brownout level %d after recovery, want 0", s.BrownoutLevel())
	}

	// Same collapse with brownout off: nobody is shed.
	s2, ts2 := newTestServer(t, Options{Languages: langs})
	g2 := s2.tenants.Load().byName["JSON"]
	for i := 0; i < 64; i++ {
		s2.observeParse(g2, bad, 0)
	}
	if s2.BrownoutLevel() != 0 {
		t.Fatalf("brownout engaged without the flag: level %d", s2.BrownoutLevel())
	}
	resp, err = http.Post(ts2.URL+"/v1/parse/JSON", "application/octet-stream", bytes.NewReader([]byte(`{"k": [1]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("collapse without brownout: status %d, want 200", resp.StatusCode)
	}
}

// TestWeightOpAndReplay: the admin weight op validates, applies, and
// journals; a restart over the same store replays the override.
func TestWeightOpAndReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}, Store: st})

	post := func(body string) (*http.Response, AdminResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/admin/grammars", "application/json", bytes.NewReader([]byte(body)))
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
		return resp, ar
	}

	resp, ar := post(`{"op": "weight", "grammar": "JSON", "weight": 7}`)
	if resp.StatusCode != http.StatusOK || ar.Weight != 7 {
		t.Fatalf("weight op: status %d weight %d, want 200/7", resp.StatusCode, ar.Weight)
	}
	if got := s.tenants.Load().byName["JSON"].weight.Load(); got != 7 {
		t.Fatalf("live weight %d, want 7", got)
	}
	if resp, _ := post(`{"op": "weight", "grammar": "JSON", "weight": 0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("weight 0: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"op": "weight", "grammar": "nope", "weight": 3}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown grammar: status %d, want 404", resp.StatusCode)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, _ := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}, Store: st2})
	if got := s2.tenants.Load().byName["JSON"].weight.Load(); got != 7 {
		t.Fatalf("replayed weight %d, want 7", got)
	}
}

// TestGrayFaultInjection: arming the chaos layer's gray fault routes
// injected stalls through the simulator's activation path and counts
// them on fault_delays_total. Delay zero keeps the test instant — the
// counter, not the wall clock, proves the wiring.
func TestGrayFaultInjection(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Languages: []*lang.Language{lang.JSON()},
		Chaos:     &ChaosOptions{GrayRate: 1, GrayDelay: 0},
	})
	resp, pr := postWhole(t, ts, "JSON", []byte(`{"k": [1, 2]}`))
	if resp.StatusCode != http.StatusOK || !pr.Accepted {
		t.Fatalf("guarded parse under gray fault: status %d accepted %v", resp.StatusCode, pr.Accepted)
	}
	g := s.tenants.Load().byName["JSON"]
	if g.m.faultDelays.Value() == 0 {
		t.Fatal("fault_delays_total never incremented with GrayRate=1")
	}
}

// TestAdmitCycleAllocs pins the full admission decision — snapshot
// lookup, shed checks, the scheduler's inline grant —
// at zero heap allocations, the budget the steady-state parse path's
// own pin (alloc_test.go) depends on.
func TestAdmitCycleAllocs(t *testing.T) {
	s, _ := newTestServer(t, Options{Languages: []*lang.Language{lang.JSON()}})
	if err := s.BenchAdmitCycle("JSON", 64); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.BenchAdmitCycle("JSON", 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("admission decision allocates %.1f per request, want 0", allocs)
	}
}
