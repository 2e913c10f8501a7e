package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"aspen/internal/lang"
	"aspen/internal/stream"
)

// The lexer is bound to a tenant's machine once, at load: every parser
// its pool builds scans with that one Bound instead of binding its own
// emit table.
func TestPooledParsersShareBound(t *testing.T) {
	s, err := New(Options{Languages: []*lang.Language{lang.JSON(), lang.Cool()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"JSON", "Cool"} {
		g := s.grammar(name)
		// Two Gets without a Put: the warm parser, then a fresh one.
		p1 := g.parsers.Get().(*stream.Parser)
		p2 := g.parsers.Get().(*stream.Parser)
		if p1 == p2 {
			t.Fatalf("%s: pool handed out one parser twice", name)
		}
		if p1.Bound() != g.bound || p2.Bound() != g.bound {
			t.Errorf("%s: parsers scan with %p and %p, tenant bound %p", name, p1.Bound(), p2.Bound(), g.bound)
		}
		g.parsers.Put(p1)
		g.parsers.Put(p2)
	}
	if s.grammar("JSON").bound == s.grammar("Cool").bound {
		t.Error("two tenants share one Bound")
	}
}

// Steady-state budget for one g.parse call. Everything proportional to
// the input — codes, stack, input tail, copy buffer, the parser itself —
// is pooled or reused, and the lexer's table is read-only, so a warm
// parse allocates nothing; the budget leaves room for small interface
// boxing. If this number creeps up, something started allocating per
// request.
const steadyStateAllocBudget = 8

// TestParseSteadyStateAllocs pins the acceptance criterion: after
// warmup, a parse performs zero grammar compiles and at most a fixed
// small number of allocations, independent of how many requests ran.
// The fast-path engine (one pooled Exec per parser) must not buy its
// speed with per-request garbage.
func TestParseSteadyStateAllocs(t *testing.T) {
	t.Run("fast", testParseSteadyStateAllocs)
}

func testParseSteadyStateAllocs(t *testing.T) {
	s, err := New(Options{Languages: []*lang.Language{lang.JSON()}})
	if err != nil {
		t.Fatal(err)
	}
	g := s.grammar("JSON")
	doc := []byte(`{"k": [1, 2, {"n": [3, 4]}], "s": "str", "b": true}`)
	ctx := context.Background()

	run := func() {
		out, retries, inputErr, sysErr := g.parseGuarded(ctx, bytes.NewReader(doc), nil)
		if sysErr != nil || inputErr != nil || !out.Accepted || retries != 0 {
			t.Fatalf("parse: out=%+v retries=%d inputErr=%v sysErr=%v", out, retries, inputErr, sysErr)
		}
	}
	// Warm the pools (parser, copy buffer) and let the reader settle.
	for i := 0; i < 4; i++ {
		run()
	}
	compilesBefore := s.Registry().Snapshot().Counters["serve_compiles_total"]

	// bytes.Reader escapes to the io.Reader interface, so allocate it
	// outside the measured region and rewind inside.
	r := bytes.NewReader(doc)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(doc)
		out, _, inputErr, sysErr := g.parseGuarded(ctx, r, nil)
		if sysErr != nil || inputErr != nil || !out.Accepted {
			t.Fatal("parse failed inside measured run")
		}
	})
	if allocs > steadyStateAllocBudget {
		t.Errorf("steady-state parse = %.1f allocs/run, budget %d", allocs, steadyStateAllocBudget)
	}
	t.Logf("steady-state parse: %.1f allocs/run", allocs)

	// Tracing must ride along for free: the same parse with a live span —
	// phase attribution, per-grammar phase histograms, and the flight-
	// recorder write — stays within the same budget (the span is stack
	// state, the record a fixed-size copy, the outcome a constant string).
	var sp span
	tracedAllocs := testing.AllocsPerRun(50, func() {
		r.Reset(doc)
		sp = span{id: 1, start: time.Now(), grammar: g.name, g: g,
			status: 200, outcome: outcomeAccepted}
		out, _, inputErr, sysErr := g.parseGuarded(ctx, r, &sp)
		if sysErr != nil || inputErr != nil || !out.Accepted {
			t.Fatal("traced parse failed inside measured run")
		}
		sp.bytes = int64(out.Bytes)
		s.recordSpan(&sp)
	})
	if tracedAllocs > steadyStateAllocBudget {
		t.Errorf("traced steady-state parse = %.1f allocs/run, budget %d (tracing must not allocate)",
			tracedAllocs, steadyStateAllocBudget)
	}
	// The race runtime allocates shadow state lazily, which makes the
	// traced-vs-untraced comparison noisy by ±1–2 allocs; the absolute
	// budget above still holds there.
	if !raceEnabled && tracedAllocs > allocs {
		t.Errorf("tracing added heap allocations: %.1f traced vs %.1f untraced", tracedAllocs, allocs)
	}
	t.Logf("traced steady-state parse: %.1f allocs/run", tracedAllocs)

	if after := s.Registry().Snapshot().Counters["serve_compiles_total"]; after != compilesBefore {
		t.Errorf("serve_compiles_total moved %d → %d during steady state", compilesBefore, after)
	}
	if compilesBefore != 1 {
		t.Errorf("serve_compiles_total = %d, want 1 (one grammar, compiled once at startup)", compilesBefore)
	}
}

// Capacity partitioning: every grammar gets a non-zero bank share and
// worker width, and the shares never exceed the fabric budget.
func TestFabricPartition(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, name := range s.tenantNames() {
		g := s.grammar(name)
		if g.cap.FabricBanks < 1 || g.cap.Contexts < 1 || g.workers < 1 {
			t.Errorf("%s: degenerate capacity %+v workers=%d", name, g.cap, g.workers)
		}
		if g.workers != g.cap.Contexts {
			t.Errorf("%s: workers=%d != contexts=%d (no override given)", name, g.workers, g.cap.Contexts)
		}
		total += g.cap.FabricBanks
	}
	if budget := s.cfg.FabricBanksOrDefault(); total > budget {
		t.Errorf("grammar shares sum to %d banks, fabric budget %d", total, budget)
	}
}
