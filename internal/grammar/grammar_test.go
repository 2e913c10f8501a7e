package grammar

import (
	"strings"
	"testing"
)

func TestArithGrammarShape(t *testing.T) {
	g := ArithGrammar()
	if g.Name != "Arith" {
		t.Errorf("Name = %q", g.Name)
	}
	if got := g.NumTokenTypes(); got != 5 {
		t.Errorf("NumTokenTypes = %d, want 5", got)
	}
	if got := len(g.Productions); got != 6 {
		t.Errorf("productions = %d, want 6", got)
	}
	if g.SymName(g.Start) != "S" {
		t.Errorf("start = %q", g.SymName(g.Start))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseEmptyAlternative(t *testing.T) {
	g, err := Parse(`
%token A
L : A L | ;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Productions) != 2 {
		t.Fatalf("productions = %d", len(g.Productions))
	}
	if len(g.Productions[1].Rhs) != 0 {
		t.Errorf("second production should be ε, got %v", g.Productions[1].Rhs)
	}
	// %empty spelling too.
	g2, err := Parse("%token A\nL : A L | %empty ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Productions[1].Rhs) != 0 {
		t.Error("expected the empty-keyword alternative to produce an ε rule")
	}
}

func TestParseTightPunctuation(t *testing.T) {
	// Punctuation glued to identifiers must still tokenize.
	g, err := Parse("%token A B\nS: A|B;")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Productions) != 2 {
		t.Fatalf("productions = %d, want 2", len(g.Productions))
	}
}

func TestParseComments(t *testing.T) {
	g, err := Parse(`
# hash comment
%token A // trailing comment
S : A ; # another
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Productions) != 1 {
		t.Fatalf("productions = %d", len(g.Productions))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"", "no rules"},
		{"%token A\nS : A", "not terminated"},
		{"%token A\nA : A ;", "terminal \"A\" used as rule LHS"},
		{"%token $end\nS : ;", "reserved"},
		{"%token A\n%start T\nS : A ;", "not defined"},
		{"%token A\nS : A ; T : A ;", "unreachable"},
		{"%token A\nS : T ;", "no productions"},
		{"%token A\nS : S A ;", "non-productive"},
		{"%start", "%start needs"},
		{"; S : ;", "unexpected \";\""},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Parse(%q) err = %v, want contains %q", tc.src, err, tc.frag)
		}
	}
}

func TestValidateStartUnset(t *testing.T) {
	g := New("x")
	g.AddProduction(g.Nonterminal("S"), g.Terminal("a"))
	g.Start = EndMarker // terminal
	if err := g.Validate(); err == nil {
		t.Fatal("expected error for terminal start")
	}
}

func TestProductionString(t *testing.T) {
	g := ArithGrammar()
	s := g.ProductionString(0)
	if !strings.Contains(s, "S →") || !strings.Contains(s, "Exp") {
		t.Errorf("ProductionString = %q", s)
	}
	// ε rendering
	g2 := MustParse("%token A\nL : A | ;")
	if got := g2.ProductionString(1); !strings.Contains(got, "ε") {
		t.Errorf("ε production rendered as %q", got)
	}
}

func TestInternIdempotent(t *testing.T) {
	g := New("x")
	a := g.Terminal("A")
	if g.Terminal("A") != a {
		t.Error("re-interning changed symbol")
	}
	if g.Lookup("A") != a {
		t.Error("Lookup failed")
	}
	if g.Lookup("missing") != NoSym {
		t.Error("Lookup of missing symbol should be NoSym")
	}
}

func TestNullableFirstFollow(t *testing.T) {
	// Classic: S → A B; A → a | ε; B → b.
	g, err := Parse(`
%token a b
S : A B ;
A : a | ;
B : b ;
`)
	if err != nil {
		t.Fatal(err)
	}
	sets := Analyze(g)
	A := g.Lookup("A")
	B := g.Lookup("B")
	S := g.Lookup("S")
	ta := g.Lookup("a")
	tb := g.Lookup("b")
	if !sets.Nullable[A] {
		t.Error("A should be nullable")
	}
	if sets.Nullable[S] || sets.Nullable[B] {
		t.Error("S and B should not be nullable")
	}
	if !sets.First[S].Has(ta) || !sets.First[S].Has(tb) {
		t.Errorf("FIRST(S) = %v, want {a,b}", sets.First[S].Sorted())
	}
	if !sets.First[A].Has(ta) || sets.First[A].Has(tb) {
		t.Errorf("FIRST(A) = %v, want {a}", sets.First[A].Sorted())
	}
	if !sets.Follow[A].Has(tb) {
		t.Errorf("FOLLOW(A) = %v, want {b}", sets.Follow[A].Sorted())
	}
	if !sets.Follow[S].Has(EndMarker) {
		t.Errorf("FOLLOW(S) should contain ⊣")
	}
	if !sets.Follow[B].Has(EndMarker) {
		t.Errorf("FOLLOW(B) should contain ⊣ (B at end of S)")
	}
}

func TestSymSetSorted(t *testing.T) {
	ss := SymSet{}
	for _, s := range []Sym{5, 1, 3, 2, 4} {
		ss.Add(s)
	}
	got := ss.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	if ss.Add(3) {
		t.Error("re-adding should return false")
	}
}

// Property: Print emits DSL text that re-parses to a grammar with the
// same name, symbols, productions, and analyses.
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"%name G1\n%token a b\nS : a S b | ;",
		"%token INT PLUS TIMES LPAREN RPAREN\nS : Exp ;\nExp : Term PLUS Exp | Term ;\nTerm : INT TIMES Term | LPAREN Exp RPAREN | INT ;",
		"%token x\nA : B x | x ; B : A | %empty ;",
	}
	for _, src := range srcs {
		g1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text := g1.Print()
		g2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, text)
		}
		if g1.Name != g2.Name || len(g1.Productions) != len(g2.Productions) {
			t.Fatalf("shape changed:\n%s", text)
		}
		if g2.SymName(g2.Start) != g1.SymName(g1.Start) {
			t.Fatalf("start changed:\n%s", text)
		}
		for i := range g1.Productions {
			if ProductionsEqual(g1, g2, i) != true {
				t.Fatalf("production %d changed:\n%s", i, text)
			}
		}
		// Printing again is a fixpoint.
		if g2.Print() != text {
			t.Errorf("Print not idempotent:\n%s\nvs\n%s", text, g2.Print())
		}
	}
}
