package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aspen/internal/serve"
)

// harness is an in-process serve.Server on a loopback listener.
type harness struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startHarness(srv *serve.Server) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// stop shuts the listener down and drains the server; it returns once the serving goroutine has exited.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := h.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// rec is one request's timing record, in nanoseconds since the phase
// started. It holds no pointers, so a run's records cost the garbage
// collector nothing to scan.
type rec struct {
	sent, done int64
	late       int64 // send minus the client's previous answer: its own turnaround
	queueNS    int64
	parseNS    int64
	bytes      int32
	failed     bool
}

func (r *rec) latency() int64 { return r.done - r.sent }

// tally is what one client collected: its records, the first few
// failure messages, and the first correct answer per document (for the
// replay's fidelity check; answers with an error are left out, since
// their counters depend on the server's read boundaries).
type tally struct {
	recs   []rec
	fails  []string
	served map[int]outcome
}

func (t *tally) add(r rec, doc int, got outcome, fail string) {
	if fail != "" {
		r.failed = true
		if len(t.fails) < 5 {
			t.fails = append(t.fails, fail)
		}
	} else if _, seen := t.served[doc]; !seen && got.Error == "" {
		t.served[doc] = got
	}
	t.recs = append(t.recs, r)
}

// merge folds the clients' tallies into one.
func merge(parts []*tally) *tally {
	all := &tally{served: map[int]outcome{}}
	for _, p := range parts {
		all.recs = append(all.recs, p.recs...)
		all.fails = append(all.fails, p.fails...)
		for doc, o := range p.served {
			if _, seen := all.served[doc]; !seen {
				all.served[doc] = o
			}
		}
	}
	return all
}

func newTallies(n, capacity int) []*tally {
	ts := make([]*tally, n)
	for i := range ts {
		ts[i] = &tally{recs: make([]rec, 0, capacity), served: map[int]outcome{}}
	}
	return ts
}

// loadgen sends a workload's requests to a harness.
type loadgen struct {
	w       *workload
	base    string
	client  *http.Client
	clients int
	start   time.Time
}

func newLoadgen(w *workload, h *harness, clients int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &loadgen{w: w, base: h.base, clients: clients, client: &http.Client{Transport: tr}}
}

func (d *loadgen) close() { d.client.CloseIdleConnections() }

func (d *loadgen) since(t time.Time) int64 { return t.Sub(d.start).Nanoseconds() }

// do sends document di and checks the answer against the reference; it
// returns the timing record, the answer, and why it failed ("" if not).
func (d *loadgen) do(di int) (rec, outcome, string) {
	doc := &d.w.docs[di]
	r := rec{bytes: int32(len(doc.data))}
	r.sent = d.since(time.Now())
	resp, err := d.client.Post(d.base+"/v1/parse/"+doc.grammar, "application/octet-stream", bytes.NewReader(doc.data))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.done = d.since(time.Now())
	var got outcome
	var fail string
	switch {
	case err != nil:
		fail = "transport: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		fail = "status " + strconv.Itoa(resp.StatusCode) + ": " + string(bytes.TrimSpace(body))
	default:
		var pr serve.ParseResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			fail = "decode: " + err.Error()
			break
		}
		r.queueNS, r.parseNS, got = pr.QueueNS, pr.ParseNS, outcomeOf(&pr)
		if diff := d.w.wants[di].diff(got); diff != "" {
			fail = "mismatch: " + diff
		}
	}
	return r, got, fail
}

// window is the measured interval of a phase, in ns since its start.
type window struct{ from, to int64 }

func (w window) holds(t int64) bool { return t >= w.from && t < w.to }

// run drives the workload closed-loop for warm+dur while a sampler reads
// process CPU and memory at the edges of the measured window's bins.
func (d *loadgen) run(warm, dur time.Duration, bins int) (*tally, window, *sampler) {
	win := window{warm.Nanoseconds(), (warm + dur).Nanoseconds()}
	d.start = time.Now()
	smp := newSampler(bins)
	sdone := make(chan struct{})
	go func() {
		defer close(sdone)
		smp.run(d.start, win)
	}()
	t := d.closedLoop(win)
	<-sdone
	return t, win, smp
}

// closedLoop runs d.clients clients back to back until the window ends.
// Client c sends documents c, c+clients, c+2·clients, ... cyclically.
func (d *loadgen) closedLoop(win window) *tally {
	out := newTallies(d.clients, 1024)
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := d.since(time.Now())
			for k := 0; d.since(time.Now()) < win.to; k++ {
				di := (c + k*d.clients) % len(d.w.docs)
				r, got, fail := d.do(di)
				r.late = r.sent - prev
				out[c].add(r, di, got, fail)
				prev = d.since(time.Now())
			}
		}(c)
	}
	wg.Wait()
	return merge(out)
}
