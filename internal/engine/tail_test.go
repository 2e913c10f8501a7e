package engine_test

// Static ε-tails: FeedAll takes a run of ε-moves that lowering decided
// in one step, so each guard on that step — the assumed class on top,
// the ε-budget, the stack-depth bound — and the rule that a tail is
// never taken right after the feed that reaches its head are compared
// here against the simulator where they bind: on the Cool and MiniC
// machines, whose LR reductions are the built-ins' longest ε-runs.

import (
	"errors"
	"fmt"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
)

type tailCase struct {
	name  string
	m     *core.HDPDA
	prog  *engine.Program
	codes []core.Symbol // the grammar's sample, endmarker included
}

func tailCases(t *testing.T) []tailCase {
	t.Helper()
	var cases []tailCase
	for _, s := range []struct {
		l   *lang.Language
		doc string
	}{{lang.Cool(), lang.CoolSample}, {lang.MiniC(), lang.MiniCSample}} {
		cm, err := s.l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cm.Engine()
		if err != nil {
			t.Fatal(err)
		}
		lx, err := s.l.Lexer()
		if err != nil {
			t.Fatal(err)
		}
		toks, _, err := lx.Tokenize([]byte(s.doc))
		if err != nil {
			t.Fatal(err)
		}
		var codes []core.Symbol
		for _, tk := range toks {
			if rule := s.l.LexSpec.Rules[tk.Rule]; !rule.Skip {
				code, ok := cm.Tokens.Code(s.l.Grammar.Lookup(rule.Name))
				if !ok {
					t.Fatalf("%s: token %q has no code", s.l.Name, rule.Name)
				}
				codes = append(codes, code)
			}
		}
		cases = append(cases, tailCase{s.l.Name, cm.Machine, prog, append(codes, compile.EndCode)})
	}
	return cases
}

// chunkDiff feeds codes through a simulator execution and an engine
// Exec of the same machine and options, one FeedAll per chunk (cut at
// cuts), drains the trailing ε-moves, and fails t on any difference
// after every call. It returns the engine's FeedAll error.
func chunkDiff(t *testing.T, tc tailCase, cuts []int, depth, budget int) error {
	t.Helper()
	sim := core.NewExecution(tc.m, core.ExecOptions{StackDepth: depth, EpsilonBudget: budget})
	eng := engine.NewExec(tc.prog, engine.Options{StackDepth: depth, EpsilonBudget: budget})
	prev := 0
	for _, cut := range append(cuts, len(tc.codes)) {
		ctx := fmt.Sprintf("%s depth %d budget %d cuts %v chunk [%d:%d]", tc.name, depth, budget, cuts, prev, cut)
		sfed, sjam, serr := sim.FeedAll(tc.codes[prev:cut])
		efed, ejam, eerr := eng.FeedAll(tc.codes[prev:cut])
		if efed != sfed || ejam != sjam || errString(eerr) != errString(serr) {
			t.Fatalf("%s: FeedAll: engine (%d, %v, %q), sim (%d, %v, %q)",
				ctx, efed, ejam, errString(eerr), sfed, sjam, errString(serr))
		}
		sameState(t, ctx, sim, eng)
		if serr != nil || sjam {
			return eerr
		}
		prev = cut
	}
	sn, serr := sim.DrainEpsilon()
	en, eerr := eng.DrainEpsilon()
	if en != sn || errString(eerr) != errString(serr) {
		t.Fatalf("%s: DrainEpsilon: engine (%d, %q), sim (%d, %q)", tc.name, en, errString(eerr), sn, errString(serr))
	}
	sameState(t, tc.name+" drained", sim, eng)
	return nil
}

// An ε-budget that runs out inside a tail: the tail's budget guard
// fails and the drain steps to the activation the simulator stops at.
func TestTailEpsilonBudget(t *testing.T) {
	for _, tc := range tailCases(t) {
		tripped := 0
		for budget := 1; budget <= 16; budget++ {
			for _, cuts := range [][]int{nil, {len(tc.codes) / 3, len(tc.codes) / 2}} {
				if err := chunkDiff(t, tc, cuts, 0, budget); errors.Is(err, core.ErrEpsilonLimit) {
					tripped++
				}
			}
		}
		if tripped == 0 {
			t.Errorf("%s: no budget tripped", tc.name)
		}
	}
}

// A stack-depth bound that ends inside a tail: the tail's overflow
// guard fails and the push that overflows faults as on the simulator.
func TestTailDepthBound(t *testing.T) {
	for _, tc := range tailCases(t) {
		sim := core.NewExecution(tc.m, core.ExecOptions{})
		if _, _, err := sim.FeedAll(tc.codes); err != nil {
			t.Fatal(err)
		}
		high := sim.Result().MaxStackDepth
		overflowed := 0
		for depth := 1; depth <= high; depth++ {
			if err := chunkDiff(t, tc, nil, depth, 0); errors.Is(err, core.ErrStackOverflow) {
				overflowed++
			}
		}
		if overflowed == 0 {
			t.Errorf("%s: no depth below %d overflowed", tc.name, high)
		}
	}
}

// A chunk whose last code activates a tail head leaves the machine in
// that head: the simulator drains only before the next symbol, so
// FinalState and the checkpoint must show the head, not the tail's end.
// (Cool's machine has such heads; MiniC's input moves reach none.)
func TestTailChunkEndsOnHead(t *testing.T) {
	onHead := 0
	for _, tc := range tailCases(t) {
		for cut := 1; cut < len(tc.codes); cut++ {
			chunkDiff(t, tc, []int{cut}, 0, 0)
			eng := engine.NewExec(tc.prog, engine.Options{})
			if _, _, err := eng.FeedAll(tc.codes[:cut]); err != nil {
				t.Fatal(err)
			}
			if cls, _, ok := engine.TailHead(tc.prog, eng.Current()); ok && engine.SymbolClass(tc.prog, eng.TOS()) == cls {
				onHead++
			}
		}
	}
	if onHead == 0 {
		t.Error("no chunk ended on a tail head")
	}
}

// A Restore can leave any entry on top of a tail head: under a class
// other than the one the tail assumes, the drain must step, not take
// the tail.
func TestTailRestoreOtherClass(t *testing.T) {
	for _, tc := range tailCases(t) {
		// One raw symbol per stack class.
		var reps []core.Symbol
		seen := map[int]bool{}
		for s := 0; s < 256; s++ {
			if cls := engine.SymbolClass(tc.prog, core.Symbol(s)); !seen[cls] {
				seen[cls] = true
				reps = append(reps, core.Symbol(s))
			}
		}
		heads := 0
		for s := 0; s < len(tc.m.States); s++ {
			cls, _, ok := engine.TailHead(tc.prog, core.StateID(s))
			if !ok {
				continue
			}
			heads++
			if heads%8 != 1 {
				continue
			}
			for i, top := range reps {
				under := reps[(i*7+s)%len(reps)]
				stack := []core.Symbol{core.BottomOfStack, under, reps[(i+s)%len(reps)], top}
				restoreDiff(t, tc.m, tc.prog, sealed(core.StateID(s), stack), tc.codes[:1], 0, false)
				if engine.SymbolClass(tc.prog, top) == cls {
					// The assumed class, under a depth bound one entry
					// above the restored stack: a tail that pushes
					// twice must step to the overflow.
					restoreDiff(t, tc.m, tc.prog, sealed(core.StateID(s), stack), tc.codes[:1], 4, false)
				}
			}
		}
		if heads == 0 {
			t.Fatalf("%s: no tail heads", tc.name)
		}
	}
}

// Tail heads per built-in: the grammars the tails speed up have
// thousands, JSON and XML a handful, so the check they pay stays cheap.
func TestBuiltinTailHeads(t *testing.T) {
	want := map[string]int{"JSON": 9, "XML": 33, "DOT": 168, "Cool": 2002, "MiniC": 2539}
	for _, l := range append(lang.All(), lang.MiniC()) {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cm.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if got := engine.TailHeads(prog); got != want[l.Name] {
			t.Errorf("%s: %d tail heads, want %d", l.Name, got, want[l.Name])
		}
	}
}
