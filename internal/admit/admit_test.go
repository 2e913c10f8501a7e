package admit

import (
	"strings"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/mnrl"
)

// ---- Admitted examples, one per format ----------------------------------

// pdaAlternating is the (ab)* machine: push A on a, pop it on b. Its
// reachable stack depth is exactly 1, so admission must prove bound 1.
const pdaAlternating = `
# (ab)* — stack depth exactly 1
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

// grammarList is a left-recursive list grammar: left recursion reduces
// eagerly, so the LR stack stays shallow and the depth bound is finite.
const grammarList = `
%name List
%token A
%start S
S : S A | A ;
%lex A a
`

func mnrlAlternating(t *testing.T) []byte {
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
	return data
}

func TestAdmitPDA(t *testing.T) {
	res, err := Admit("alt", FormatPDA, []byte(pdaAlternating), Limits{})
	if err != nil {
		t.Fatalf("admission failed: %v", err)
	}
	if res.StackBound != 1 {
		t.Errorf("proven bound = %d, want 1", res.StackBound)
	}
	if res.Language.Prebuilt == nil || res.Language.Format != FormatPDA {
		t.Errorf("language not stamped: prebuilt=%v format=%q", res.Language.Prebuilt != nil, res.Language.Format)
	}
	assertAccepts(t, res, "ab", true)
	assertAccepts(t, res, "abab", true)
	assertAccepts(t, res, "", true)
	assertAccepts(t, res, "aab", false)
	assertAccepts(t, res, "ba", false)
	assertAccepts(t, res, "aba", false)
}

// TestCompiledFingerprintCached pins compile.Compiled.Fingerprint, the
// digest every parser stamps into its checkpoints: hashed once and
// cached, it must equal Machine.Fingerprint for the built-ins and for
// an uploaded machine, whose stack depth admission sets after compiling.
func TestCompiledFingerprintCached(t *testing.T) {
	var cms []*compile.Compiled
	for _, l := range append(lang.All(), lang.MiniC()) {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		cms = append(cms, cm)
	}
	res, err := Admit("alt", FormatPDA, []byte(pdaAlternating), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cms = append(cms, res.Language.Prebuilt)
	if len(cms) != 6 {
		t.Fatalf("%d machines, want the five built-ins and the upload", len(cms))
	}
	for _, cm := range cms {
		want := cm.Machine.Fingerprint()
		for i := 0; i < 2; i++ {
			if got := cm.Fingerprint(); got != want {
				t.Fatalf("%s: call %d: Fingerprint() = %016x, Machine.Fingerprint() = %016x", cm.Machine.Name, i, got, want)
			}
		}
	}
}

func TestAdmitMNRL(t *testing.T) {
	res, err := Admit("alt-mnrl", FormatMNRL, mnrlAlternating(t), Limits{})
	if err != nil {
		t.Fatalf("admission failed: %v", err)
	}
	if res.StackBound != 1 {
		t.Errorf("proven bound = %d, want 1", res.StackBound)
	}
	assertAccepts(t, res, "abab", true)
	assertAccepts(t, res, "aab", false)
}

func TestAdmitGrammar(t *testing.T) {
	res, err := Admit("list", FormatGrammar, []byte(grammarList), Limits{})
	if err != nil {
		t.Fatalf("admission failed: %v", err)
	}
	if res.StackBound <= 0 || res.StackBound > 8 {
		t.Errorf("proven bound = %d, want small positive", res.StackBound)
	}
	assertAccepts(t, res, "a", true)
	assertAccepts(t, res, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", true)
	assertAccepts(t, res, "", false)
}

// assertAccepts runs the admitted machine over raw input through the
// same lex→syms→codes pipeline the server uses, then checks both the
// verdict and that the proven depth bound held.
func assertAccepts(t *testing.T, res *Result, input string, want bool) {
	t.Helper()
	got, r := runAdmitted(t, res, []byte(input))
	if got != want {
		t.Errorf("input %q: accepted=%v, want %v", input, got, want)
	}
	if r.MaxStackDepth > res.StackBound {
		t.Errorf("input %q: stack reached %d > proven bound %d", input, r.MaxStackDepth, res.StackBound)
	}
}

// runAdmitted tokenizes input with the admitted language's lexer and
// executes the machine with the ⊣ end-marker appended.
func runAdmitted(t *testing.T, res *Result, input []byte) (bool, core.Result) {
	t.Helper()
	l := res.Language
	cm := res.Language.Prebuilt
	lx, err := l.Lexer()
	if err != nil {
		t.Fatalf("lexer: %v", err)
	}
	toks, _, err := lx.Tokenize(input)
	if err != nil {
		return false, core.Result{} // unlexable bytes: rejected before the machine
	}
	syms, err := l.Syms(toks)
	if err != nil {
		t.Fatalf("syms: %v", err)
	}
	in, err := cm.Tokens.Encode(syms, true)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	r, err := cm.Machine.Run(in, core.ExecOptions{})
	if err != nil {
		t.Fatalf("input %q: run error: %v", input, err)
	}
	return r.Accepted, r
}

// grammarLexBlowup's one %lex rule, [ab]*a then 13 more [ab], must
// remember the last 14 bytes it read: its DFA needs 2^14 states, past
// the determinization cap.
var grammarLexBlowup = "%name Blowup\n%token A\n%start S\nS : A ;\n%lex A [ab]*a" + strings.Repeat("[ab]", 13) + "\n"

// A tokenizer whose DFA blows up is rejected at admission with a
// tokenizer diagnostic: the DFA is the only runtime path, so there is
// nothing slower to serve it on.
func TestAdmitRejectsLexerBlowup(t *testing.T) {
	res, err := Admit("blowup", FormatGrammar, []byte(grammarLexBlowup), Limits{})
	if err == nil {
		t.Fatalf("lexer blow-up admitted (bound %d)", res.StackBound)
	}
	rej, ok := err.(*Rejection)
	if !ok || len(rej.Diagnostics) == 0 {
		t.Fatalf("error is %T %v, want a *Rejection with diagnostics", err, err)
	}
	d := rej.Diagnostics[0]
	if d.Check != CheckParse || !strings.HasPrefix(d.Message, "tokenizer: ") ||
		!strings.Contains(d.Message, "determinization exceeded") {
		t.Errorf("rejected by %q: %s; want a %q tokenizer diagnostic naming the state cap", d.Check, d.Message, CheckParse)
	}
}

// ---- Hostile corpus ------------------------------------------------------

// hostileCase is one upload that must be rejected, with the check that
// must reject it.
type hostileCase struct {
	name   string
	format string
	source string
	check  string
}

func hostileCorpus() []hostileCase {
	unboundedPDA := `
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
	nondetPDA := `
[States]
q0 q1 q2
End
[Sigma]
a
End
[Stack Sigma]
A
End
[Rules]
q0, a, epsilon, A, q1
q0, a, epsilon, A, q2
End
[Start]
q0
End
[Accept]
q1
End
`
	epsCyclicPDA := `
[States]
q0 q1
End
[Sigma]
a
End
[Stack Sigma]
A
End
[Rules]
q0, a, epsilon, A, q1
q1, epsilon, A, A, q1
End
[Start]
q0
End
[Accept]
q1
End
`
	incompletePDA := `
[States]
q0 q1 trap
End
[Sigma]
a b
End
[Stack Sigma]
A
End
[Rules]
q0, a, epsilon, epsilon, q1
q0, b, epsilon, epsilon, trap
trap, b, epsilon, epsilon, trap
End
[Start]
q0
End
[Accept]
q1
End
`
	truncatedPDA := `
[States]
q0 q1
End
[Sigma]
a
End
[Stack Sigma]
A
End
[Rules]
q0, a, epsilon, A, q1
`
	nondetGrammar := `
%name Amb
%token A
%start S
S : A | B ;
B : A ;
%lex A a
`
	unboundedGrammar := `
%name Right
%token A
%start S
S : A S | A ;
%lex A a
`
	// The same reduce/reduce conflict under two names: the rejection
	// must not depend on what the upload is called.
	dupGrammar := `
%token a
%start S
S : a | a ;
%lex a a
`
	// One production of 300 terminals: an LALR automaton past the 256
	// states an 8-bit stack symbol can name.
	longGrammar := "%token a\n%start S\nS :" + strings.Repeat(" a", 300) + " ;\n%lex a a\n"
	underflowMNRL := `{
  "version": "aspen-mnrl-1.0",
  "id": "underflow",
  "nodes": [
    {"id": "q0", "type": "hPDAState", "enable": "onStartAndActivateIn",
     "attributes": {"symbolSet": "0x61", "stackSet": "*"}, "activateOnMatch": ["q1"]},
    {"id": "q1", "type": "hPDAState", "report": true, "reportId": -1,
     "attributes": {"symbolSet": "0x61", "stackSet": "*", "pop": 1},
     "activateOnMatch": []}
  ]
}`
	return []hostileCase{
		{"unbounded-depth-pda", FormatPDA, unboundedPDA, CheckDepth},
		{"nondeterministic-pda", FormatPDA, nondetPDA, CheckDeterminism},
		{"epsilon-cyclic-pda", FormatPDA, epsCyclicPDA, CheckEpsilon},
		{"incomplete-pda", FormatPDA, incompletePDA, CheckCompleteness},
		{"torn-truncated-pda", FormatPDA, truncatedPDA, CheckParse},
		{"nondeterministic-grammar", FormatGrammar, nondetGrammar, CheckDeterminism},
		{"unbounded-depth-grammar", FormatGrammar, unboundedGrammar, CheckDepth},
		{"ambig", FormatGrammar, dupGrammar, CheckDeterminism},
		{"states256", FormatGrammar, dupGrammar, CheckDeterminism},
		{"too-many-lr-states", FormatGrammar, longGrammar, CheckLimits},
		{"underflow-mnrl", FormatMNRL, underflowMNRL, CheckUnderflow},
		{"garbage-mnrl", FormatMNRL, `{"nodes": [{"type":`, CheckParse},
		{"oversize", FormatPDA, strings.Repeat("# padding\n", 40000), CheckLimits},
		{"unknown-format", "yacc", "S : ;", CheckParse},
	}
}

func TestHostileCorpusRejected(t *testing.T) {
	for _, hc := range hostileCorpus() {
		t.Run(hc.name, func(t *testing.T) {
			format := hc.format
			res, err := Admit(hc.name, format, []byte(hc.source), Limits{})
			if err == nil {
				t.Fatalf("hostile upload admitted (bound %d)", res.StackBound)
			}
			rej, ok := err.(*Rejection)
			if !ok {
				t.Fatalf("error is %T, want *Rejection: %v", err, err)
			}
			if len(rej.Diagnostics) == 0 {
				t.Fatal("rejection carries no diagnostics")
			}
			if got := rej.Diagnostics[0].Check; got != hc.check {
				t.Errorf("rejected by %q, want %q (message: %s)", got, hc.check, rej.Diagnostics[0].Message)
			}
		})
	}
}

// TestDepthBoundIsTight pins that the analysis computes the exact bound
// on a machine with a known maximum: push two, then pop two.
func TestDepthBoundIsTight(t *testing.T) {
	src := `
[States]
q0 q1 q2 q3
End
[Sigma]
a b
End
[Stack Sigma]
A B
End
[Rules]
q0, a, epsilon, A, q1
q1, a, epsilon, B, q2
q2, b, B, epsilon, q3
q3, b, A, epsilon, q0
End
[Start]
q0
End
[Accept]
q0
End
`
	res, err := Admit("two", FormatPDA, []byte(src), Limits{})
	if err != nil {
		t.Fatalf("admission failed: %v", err)
	}
	if res.StackBound != 2 {
		t.Errorf("proven bound = %d, want 2", res.StackBound)
	}
	assertAccepts(t, res, "aabb", true)
	assertAccepts(t, res, "aabbaabb", true)
	assertAccepts(t, res, "ab", false)
}

// TestDepthLimitEnforced pins the over-limit (not unbounded) rejection.
func TestDepthLimitEnforced(t *testing.T) {
	src := `
[States]
q0 q1 q2 q3
End
[Sigma]
a b
End
[Stack Sigma]
A B
End
[Rules]
q0, a, epsilon, A, q1
q1, a, epsilon, B, q2
q2, b, B, epsilon, q3
q3, b, A, epsilon, q0
End
[Start]
q0
End
[Accept]
q0
End
`
	_, err := Admit("two", FormatPDA, []byte(src), Limits{MaxDepth: 1})
	rej, ok := err.(*Rejection)
	if !ok {
		t.Fatalf("want rejection, got %v", err)
	}
	if rej.Diagnostics[0].Check != CheckDepth {
		t.Errorf("rejected by %q, want depth", rej.Diagnostics[0].Check)
	}
}

// TestBuiltinStyleMachineCompleteness sanity-checks the completeness
// analysis against a machine from the trusted LR pipeline: the
// left-recursive list machine must pass all checks (it did — it was
// admitted), and gutting its accept wiring must flip completeness.
func TestCompletenessNeedsAcceptReachable(t *testing.T) {
	res, err := Admit("list", FormatGrammar, []byte(grammarList), Limits{})
	if err != nil {
		t.Fatalf("admission failed: %v", err)
	}
	m := res.Language.Prebuilt.Machine.Clone()
	for i := range m.States {
		m.States[i].Accept = false
	}
	_, diags := analyze(m, Limits{}.Normalize())
	if len(diags) == 0 || diags[0].Check != CheckCompleteness {
		t.Errorf("gutted machine passed completeness: %+v", diags)
	}
}

// TestAdmissionDeterministic pins that two admissions of the same
// source produce fingerprint-identical machines — journal replay
// depends on this.
func TestAdmissionDeterministic(t *testing.T) {
	for _, c := range []struct {
		format string
		src    []byte
	}{
		{FormatPDA, []byte(pdaAlternating)},
		{FormatGrammar, []byte(grammarList)},
		{FormatMNRL, mnrlAlternating(t)},
	} {
		a, err := Admit("d", c.format, c.src, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		b, err := Admit("d", c.format, c.src, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		fa := a.Language.Prebuilt.Machine.Fingerprint()
		fb := b.Language.Prebuilt.Machine.Fingerprint()
		if fa != fb {
			t.Errorf("%s: fingerprints differ: %#x vs %#x", c.format, fa, fb)
		}
	}
}
