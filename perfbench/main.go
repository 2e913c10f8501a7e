package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aspen/internal/lang"
	"aspen/internal/serve"
)

// outDir holds everything a run writes (stores, traces, result history),
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build"

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for the documents")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	res, err := bench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return res.print(*trace == 1)
}

// result is one run's outcome.
type result struct {
	meta      map[string]any
	endToEnd  []metric
	perLayer  []metric
	attempted int
	failed    int
	problems  []string // failures and replay mismatches; any makes the run incorrect
}

func bench(name string, seed int64, dur time.Duration, traced bool, tmp string) (*result, error) {
	clients := runtime.NumCPU() // client goroutines, each with its own connection
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	setup, h, err := setupServer(w)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = h.stop() // the run already failed; that error is the one reported
		}
	}()

	// One bin per second of the window: medians over bins shrug off the
	// host's short slow spells.
	const warm = time.Second
	bins := max(5, int(dur/time.Second))
	settle()
	d := newLoadgen(w, h, clients)
	t, win, smp := d.run(warm, dur, bins)
	d.close()
	ps := summarize(t, win, smp)
	res := &result{attempted: ps.attempted, failed: ps.failed, problems: ps.failures}
	res.endToEnd = []metric{
		{"throughput_mib_s", ps.throughput, "MiB/s", ps.bins},
		{"latency_p50_ms", ps.latP50, "ms", ps.latN},
		{"latency_p99_ms", ps.latP99, "ms", ps.latN},
		{"cpu_ns_per_kib", ps.cpuPerKiB, "ns/KiB", ps.bins},
		{"success_rate", 1 - float64(ps.failed)/float64(max(1, ps.attempted)), "ratio", ps.attempted},
		{"setup_s", median(setup), "s", len(setup)},
		{"rss_peak_mib", ps.rssMiB, "MiB", 1},
	}
	res.perLayer = []metric{
		{"serve.queue_ms_p50", ps.queueP50, "ms", ps.latN},
		{"serve.queue_ms_p99", ps.queueP99, "ms", ps.latN},
		{"serve.parse_ms_p50", ps.parseP50, "ms", ps.latN},
		{"http.overhead_ms_p50", ps.httpP50, "ms", ps.latN},
		{"runtime.allocs_per_req", ps.allocsPerReq, "count", ps.latN},
		{"runtime.gc_cycles_per_s", ps.gcPerSec, "1/s", ps.bins},
		{"loadgen.late_ms_p99", ps.lateP99, "ms", ps.latN},
	}

	if traced {
		// The traced replay of the same documents, layer by layer.
		settle()
		ls, st, err := buildLayers(w.grammars, 3)
		if err != nil {
			return nil, err
		}
		settle()
		rep, err := replay(w, ls, ps.served, h.srv, filepath.Join(tmp, "replay-checkpoints"), dur/4)
		if err != nil {
			return nil, err
		}
		res.problems = append(res.problems, rep.mismatch...)
		var comp, lower, lex []float64
		for _, s := range st {
			comp = append(comp, ms(s.compile.Nanoseconds()))
			lower = append(lower, ms(s.lower.Nanoseconds()))
			lex = append(lex, ms(s.lexer.Nanoseconds()))
		}
		res.perLayer = append(res.perLayer,
			metric{"setup.compile_ms", median(comp), "ms", len(st)},
			metric{"setup.lower_ms", median(lower), "ms", len(st)},
			metric{"setup.lexer_ms", median(lex), "ms", len(st)})
		res.perLayer = append(res.perLayer, rep.metrics...)
		if err := writeTrace(w.name, rep.spans); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := h.stop(); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	res.meta = runMeta(w, seed, dur, traced, clients, ps)
	return res, nil
}

// setupServer times cold serve.New calls for the workload's grammar set
// (fresh language values each time, so compile, lowering, lexer build,
// placement and pool warm-up all rerun) and serves the last one. It
// repeats at least three times and then until two seconds are spent or
// 25 calls are made.
func setupServer(w *workload) ([]float64, *harness, error) {
	var times []float64
	var srv *serve.Server
	spent := time.Duration(0)
	for rep := 0; rep < 25 && (rep < 3 || spent < 2*time.Second); rep++ {
		if srv != nil {
			if err := srv.Drain(context.Background()); err != nil {
				return nil, nil, err
			}
		}
		settle()
		langs := make([]*lang.Language, 0, len(w.grammars))
		for _, g := range w.grammars {
			langs = append(langs, serve.ResolveBuiltin(g))
		}
		t := time.Now()
		var err error
		srv, err = serve.New(serve.Options{Languages: langs})
		d := time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("serve.New: %w", err)
		}
		spent += d
		times = append(times, d.Seconds())
	}
	h, err := startHarness(srv)
	if err != nil {
		return nil, nil, err
	}
	return times, h, nil
}

// writeTrace writes the replay's kept spans as JSON lines to
// .bench_build/trace-<workload>.jsonl.
func writeTrace(workload string, spans []span) error {
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// print writes every metric by name with its unit and sample count, the
// metadata line, and last the result line; it returns the exit code.
func (r *result) print(traced bool) int {
	correct := len(r.problems) == 0 && r.failed == 0
	for _, p := range r.problems {
		fmt.Println("FAIL:", p)
	}
	show := func(title string, ms []metric) {
		fmt.Println(title)
		for _, m := range ms {
			fmt.Printf("  %-34s %14.4f %-9s n=%d\n", m.name, m.value, m.unit, m.n)
		}
	}
	show("end-to-end (untraced run):", r.endToEnd)
	fmt.Printf("  %-34s %14.6f %-9s n=%d\n", "error_rate", float64(r.failed)/float64(max(1, r.attempted)), "ratio", r.attempted)
	show("per-layer:", r.perLayer)
	if traced {
		var sum, stream float64
		for _, m := range r.perLayer {
			switch m.name {
			case "ledger.layer_sum_ns_per_kib":
				sum = m.value
			case "stream.ns_per_kib":
				stream = m.value
			}
		}
		fmt.Printf("ledger: lexer+encode+engine = %.0f ns/KiB, stream = %.0f ns/KiB, stream - layers = %+.0f ns/KiB\n", sum, stream, stream-sum)
	}
	samples := map[string]int{}
	for _, m := range append(append([]metric(nil), r.endToEnd...), r.perLayer...) {
		samples[m.name] = m.n
	}
	r.meta["samples"] = samples
	if note := flagIncomparable(r.meta); note != "" {
		fmt.Println("note:", note)
	}
	if b, err := json.Marshal(map[string]any{"meta": r.meta}); err == nil {
		fmt.Println(string(b))
	}

	report := r.endToEnd
	if traced {
		report = r.perLayer
	}
	metrics := map[string]any{}
	for _, m := range report {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Println("FAIL: metric", m.name, "has no value")
			correct, v = false, 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
