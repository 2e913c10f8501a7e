package engine_test

// Differential tests: the engine must be observationally identical to
// the cycle-accurate simulator — accept/reject decisions, report
// events, every Result counter, and error classes including their
// exact strings (serve responses embed them). The corpus spans all
// five built-in grammars with valid, jamming, unlexable, and
// depth-overflowing documents, driven whole and at adversarial chunk
// sizes.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
	"aspen/internal/stream"
)

// diffCorpus: per grammar, documents that exercise accept, reject
// (jam), and lex-error paths.
var diffCorpus = map[string][]string{
	"JSON": {
		`{}`, `[]`, `null`, `[[[[[1]]]]]`,
		`{"a": {"b": [1, -2.5e3, "s\n", true, null]}}`,
		`[{"id": 1, "tags": []}, {"id": 2, "tags": ["x"]}]`,
		`{"bad" 1}`,       // jam: missing colon
		`[1, 2,]`,         // jam: trailing comma
		`{"x": ` + "\x01", // lex error
		`{"open": [1, 2`,  // truncated: jam on endmarker
		``,                // empty: jam on endmarker
	},
	"DOT": {
		`graph {}`,
		`digraph g { a -> b [weight=2]; b -> { c d }; }`,
		`digraph { subgraph cluster_a { p q } p -> q; }`,
		`digraph { a:port -> b:port:sw; }`,
		`graph 123abc{}`, // jam
		`digraph { $ }`,  // lex error
	},
	"Cool": {
		`class A { };`,
		`class A { f(x : Int) : Int { if x < 1 then 0 else f(x - 1) fi }; };`,
		`class A { f() : Int { let x : Int <- 1, y : Int <- 2 in x + y }; };`,
		`class A { f() : Object { case 1 of n : Int => n; esac }; };`,
		`class class { };`, // jam
	},
	"XML": {
		`<r/>`,
		`<?xml version="1.0"?><r a="1">text<b/><!-- c --></r>`,
		`<r><a><b><c/></b></a></r>`,
		`<r></q>`,   // jam: mismatched close accepted lexically, machine decides
		`<r><a></r`, // truncated
	},
	"MiniC": {
		`int x;`,
		`int max(int a, int b) { if (a > b) return a; return b; }`,
		`int sum(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) s = s + i; return s; }`,
		`int f() { return; }`, // grammar decides
		`int 5x;`,             // jam
	},
}

// backends enumerates the ways a document can be executed against a
// compiled grammar.
type runMode int

const (
	simMode    runMode = iota // core.Execution behind the parser (ground truth)
	engineMode                // engine.Exec behind the parser (serve's path)
)

// parseWith runs doc through a streaming parse under the given backend
// mode, in chunkSize pieces (0 = whole), with an optional stack-depth
// override.
func parseWith(t *testing.T, l *lang.Language, cm *compile.Compiled, mode runMode, doc []byte, chunkSize, depth int) (stream.Outcome, error) {
	t.Helper()
	var p *stream.Parser
	var err error
	switch mode {
	case simMode:
		p, err = stream.NewParser(l, cm, core.ExecOptions{StackDepth: depth})
	default:
		prog, perr := cm.Engine()
		if perr != nil {
			t.Fatalf("lower %s: %v", l.Name, perr)
		}
		p, err = stream.NewParserBackend(l, cm, engine.NewExec(prog, engine.Options{StackDepth: depth}))
	}
	if err != nil {
		t.Fatalf("parser %s: %v", l.Name, err)
	}
	if chunkSize <= 0 {
		chunkSize = len(doc)
	}
	for off := 0; off < len(doc); off += chunkSize {
		end := off + chunkSize
		if end > len(doc) {
			end = len(doc)
		}
		if _, werr := p.Write(doc[off:end]); werr != nil {
			out, _ := p.Close()
			return out, werr
		}
	}
	return p.Close()
}

// errString canonicalizes an error for comparison (nil-safe).
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestEngineDifferentialCorpus(t *testing.T) {
	for _, l := range append(lang.All(), lang.MiniC()) {
		docs := diffCorpus[l.Name]
		if len(docs) == 0 {
			t.Fatalf("no differential corpus for %s", l.Name)
		}
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		for di, doc := range docs {
			for _, chunk := range []int{0, 1, 7} {
				want, wantErr := parseWith(t, l, cm, simMode, []byte(doc), chunk, 0)
				got, gotErr := parseWith(t, l, cm, engineMode, []byte(doc), chunk, 0)
				if errString(gotErr) != errString(wantErr) {
					t.Errorf("%s doc %d chunk %d: err %q, sim %q",
						l.Name, di, chunk, errString(gotErr), errString(wantErr))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s doc %d chunk %d: outcome\n got %+v\nwant %+v",
						l.Name, di, chunk, got, want)
				}
			}
		}
	}
}

// Depth overflows must answer the same error class (serve maps it to
// 422) with the same string on the engine as on the simulator.
func TestEngineDifferentialDepthOverflow(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	deep := []byte(strings.Repeat("[", 64) + "1" + strings.Repeat("]", 64))
	for _, depth := range []int{4, 9} {
		want, wantErr := parseWith(t, l, cm, simMode, deep, 3, depth)
		if wantErr == nil || !errors.Is(wantErr, core.ErrStackOverflow) {
			t.Fatalf("depth %d: sim did not overflow: %v", depth, wantErr)
		}
		got, gotErr := parseWith(t, l, cm, engineMode, deep, 3, depth)
		if !errors.Is(gotErr, core.ErrStackOverflow) {
			t.Fatalf("depth %d: engine error class %v", depth, gotErr)
		}
		if errString(gotErr) != errString(wantErr) {
			t.Errorf("depth %d: err %q, sim %q", depth, errString(gotErr), errString(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("depth %d: outcome\n got %+v\nwant %+v", depth, got, want)
		}
	}
}

// Machine-level differential on the hand-built palindrome hDPDA:
// report events (positions, states, codes) and every Result field,
// including jam and overflow runs.
func TestEngineDifferentialPalindromeReports(t *testing.T) {
	m := core.PalindromeHDPDA()
	prog, err := engine.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{
		"", "c", "0c0", "1c1", "010c010", "0110c0110",
		"01c01", // not a palindrome: jams mid-check
		"cc", "0c", "c0", "000111",
		strings.Repeat("0", 300) + "c" + strings.Repeat("0", 300), // overflow at default depth? (300 > 256)
	}
	for _, depth := range []int{0, 3} {
		for _, in := range inputs {
			syms := core.BytesToSymbols([]byte(in))
			want, wantErr := m.Run(syms, core.ExecOptions{CollectReports: true, StackDepth: depth})
			got, gotErr := prog.Run(syms, engine.Options{CollectReports: true, StackDepth: depth})
			if errString(gotErr) != errString(wantErr) {
				t.Errorf("%q depth %d: err %q, sim %q", in, depth, errString(gotErr), errString(wantErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q depth %d: result\n got %+v\nwant %+v", in, depth, got, want)
			}
		}
	}
}

// The ε-budget must trip identically: same class, same string (it
// embeds the pre-transition state and the ε-run length).
func TestEngineDifferentialEpsilonLimit(t *testing.T) {
	// A valid machine with an unbounded ε-cascade: s1 pushes on every
	// activation and ε-loops on itself via s2.
	m := &core.HDPDA{Name: "eps-loop", StackDepth: 1 << 20}
	s0 := m.AddState(core.State{Label: "start", Epsilon: true, Stack: core.AllSymbols()})
	s1 := m.AddState(core.State{Label: "spin", Epsilon: true, Stack: core.AllSymbols(),
		Op: core.StackOp{Push: 2, HasPush: true}})
	m.AddEdge(s0, s1)
	m.AddEdge(s1, s1)
	m.Start = s0
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, err := engine.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 5, 64} {
		want, wantErr := m.Run(nil, core.ExecOptions{EpsilonBudget: budget})
		got, gotErr := prog.Run(nil, engine.Options{EpsilonBudget: budget})
		if wantErr == nil || !errors.Is(wantErr, core.ErrEpsilonLimit) {
			t.Fatalf("budget %d: sim did not trip: %v", budget, wantErr)
		}
		if errString(gotErr) != errString(wantErr) {
			t.Errorf("budget %d: err %q, sim %q", budget, errString(gotErr), errString(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("budget %d: result\n got %+v\nwant %+v", budget, got, want)
		}
	}
}

// Checkpoints are interchangeable across backends: a parse checkpointed
// under one backend resumes under the other, reproducing the
// uninterrupted outcome byte for byte — the property that lets a
// durable session checkpointed on the simulator (by a daemon that served
// it there) resume on the engine after a restart.
func TestEngineDifferentialCheckpointInterop(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cm.Engine()
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte(`{"k": [1, 2, {"n": [3, 4]}], "s": "str", "b": true}`)
	cut := len(doc) / 2

	// Baseline: an uninterrupted parse split at the same byte as the
	// checkpoint (lexer scan-cycle stats are chunking-dependent, so the
	// baseline must see the identical chunking).
	base, err := stream.NewParser(l, cm, core.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Write(doc[:cut]); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Write(doc[cut:]); err != nil {
		t.Fatal(err)
	}
	want, wantErr := base.Close()
	if wantErr != nil {
		t.Fatal(wantErr)
	}

	newParser := func(mode runMode) *stream.Parser {
		var p *stream.Parser
		var err error
		if mode == simMode {
			p, err = stream.NewParser(l, cm, core.ExecOptions{})
		} else {
			p, err = stream.NewParserBackend(l, cm, engine.NewExec(prog, engine.Options{}))
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, dir := range []struct {
		name     string
		from, to runMode
	}{{"engine->sim", engineMode, simMode}, {"sim->engine", simMode, engineMode}} {
		src := newParser(dir.from)
		if _, err := src.Write(doc[:cut]); err != nil {
			t.Fatalf("%s: write: %v", dir.name, err)
		}
		var cp stream.Checkpoint
		src.Checkpoint(&cp)

		dst := newParser(dir.to)
		if err := dst.Restore(&cp); err != nil {
			t.Fatalf("%s: restore: %v", dir.name, err)
		}
		if _, err := dst.Write(doc[cut:]); err != nil {
			t.Fatalf("%s: resume write: %v", dir.name, err)
		}
		got, gotErr := dst.Close()
		if gotErr != nil {
			t.Fatalf("%s: close: %v", dir.name, gotErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed outcome\n got %+v\nwant %+v", dir.name, got, want)
		}
	}

	// A corrupted snapshot is refused by the engine backend too.
	src := newParser(engineMode)
	if _, err := src.Write(doc[:cut]); err != nil {
		t.Fatal(err)
	}
	var cp stream.Checkpoint
	src.Checkpoint(&cp)
	cp.Exec.Cur = core.StateID(prog.NumStates() + 40)
	cp.Exec.Seal()
	cp.Seal()
	dst := newParser(engineMode)
	if err := dst.Restore(&cp); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("out-of-range restore: %v, want ErrCheckpointCorrupt", err)
	}
}

// Pooled-reset equivalence: a reset engine exec behaves like a fresh
// one (the serve parser pool depends on this).
func TestEngineResetEquivalence(t *testing.T) {
	m := core.PalindromeHDPDA()
	prog, err := engine.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	in := core.BytesToSymbols([]byte("010c010"))
	fresh := engine.NewExec(prog, engine.Options{CollectReports: true})
	runOn := func(e *engine.Exec) (core.Result, error) {
		fed, jammed, err := e.FeedAll(in)
		if err != nil {
			return e.Result(), err
		}
		_ = fed
		if _, err := e.DrainEpsilon(); err != nil {
			return e.Result(), err
		}
		res := e.Result()
		res.Jammed = jammed
		res.Accepted = !jammed && e.InAccept()
		return res, nil
	}
	want, wantErr := runOn(fresh)
	fresh.Reset()
	got, gotErr := runOn(fresh)
	if errString(gotErr) != errString(wantErr) || !reflect.DeepEqual(got, want) {
		t.Errorf("reset run diverged:\n got %+v (%v)\nwant %+v (%v)", got, gotErr, want, wantErr)
	}
}

// Compile must reject machines whose shape the dispatch tables cannot
// represent soundly (determinism violations), mirroring Validate.
func TestEngineCompileRejectsInvalid(t *testing.T) {
	m := &core.HDPDA{Name: "eps-overlap"}
	s0 := m.AddState(core.State{Label: "s0", Epsilon: true, Stack: core.AllSymbols()})
	s1 := m.AddState(core.State{Label: "s1", Epsilon: true, Stack: core.AllSymbols()})
	s2 := m.AddState(core.State{Label: "s2", Epsilon: true, Stack: core.AllSymbols()})
	m.AddEdge(s0, s1)
	m.AddEdge(s0, s2)
	m.Start = s0
	if _, err := engine.Compile(m); err == nil {
		t.Fatal("Compile accepted an ε-ambiguous machine")
	}
	if _, err := engine.Compile(&core.HDPDA{Name: "empty"}); err == nil {
		t.Fatal("Compile accepted an empty machine")
	}
}

// Sanity on the lowered shape accessors.
func TestEngineProgramShape(t *testing.T) {
	l := lang.JSON()
	cm, err := l.Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cm.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumStates() != len(cm.Machine.States) {
		t.Errorf("NumStates = %d, machine has %d", prog.NumStates(), len(cm.Machine.States))
	}
	if prog.Name() != cm.Machine.Name {
		t.Errorf("Name = %q, want %q", prog.Name(), cm.Machine.Name)
	}
	if prog.StackDepth() != core.DefaultStackDepth {
		t.Errorf("StackDepth = %d", prog.StackDepth())
	}
	if prog.TableBytes() <= 0 {
		t.Error("TableBytes not positive")
	}
	// The lowering is cached: same pointer on the second call.
	again, err := cm.Engine()
	if err != nil || again != prog {
		t.Errorf("Engine() not cached: %p vs %p (%v)", again, prog, err)
	}
}

// TestBuiltinTableBytes pins the lowered footprint of every built-in
// grammar: dispatch rows are as wide as the machine's stack-class count
// and input alphabet, not 256, and must stay that way.
func TestBuiltinTableBytes(t *testing.T) {
	maxKiB := map[string]int{"JSON": 64, "XML": 64, "DOT": 512, "Cool": 3584, "MiniC": 4608}
	for _, l := range append(lang.All(), lang.MiniC()) {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cm.Engine()
		if err != nil {
			t.Fatal(err)
		}
		bound, ok := maxKiB[l.Name]
		if !ok {
			t.Fatalf("no table bound for %s", l.Name)
		}
		if kib := prog.TableBytes() >> 10; kib > bound {
			t.Errorf("%s: engine tables take %d KiB, bound %d KiB", l.Name, kib, bound)
		}
	}
}
