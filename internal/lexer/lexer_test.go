package lexer

import (
	"errors"
	"strings"
	"testing"
)

func simpleSpec() Spec {
	return Spec{
		Name: "calc",
		Rules: []Rule{
			{Name: "IF", Pattern: "if"},
			{Name: "ID", Pattern: `[a-z][a-z0-9]*`},
			{Name: "INT", Pattern: `\d+`},
			{Name: "PLUS", Pattern: `\+`},
			{Name: "WS", Pattern: `\s+`, Skip: true},
		},
	}
}

func names(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Name
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	l, err := New(simpleSpec())
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("if x1 + 42")
	toks, stats, err := l.Tokenize(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"IF", "ID", "PLUS", "INT"}
	if strings.Join(names(toks), ",") != strings.Join(want, ",") {
		t.Fatalf("tokens = %v, want %v", names(toks), want)
	}
	if toks[1].Text(in) != "x1" || toks[3].Text(in) != "42" {
		t.Errorf("lexemes wrong: %q %q", toks[1].Text(in), toks[3].Text(in))
	}
	if stats.Bytes != len(in) || stats.Tokens != 7 { // 4 tokens + 3 skips
		t.Errorf("stats = %+v", stats)
	}
	if stats.HandoffCycles != 8 {
		t.Errorf("HandoffCycles = %d, want 8", stats.HandoffCycles)
	}
	if stats.ScanCycles < stats.Bytes {
		t.Errorf("ScanCycles = %d < bytes %d", stats.ScanCycles, stats.Bytes)
	}
}

func TestKeywordPriority(t *testing.T) {
	l, _ := New(simpleSpec())
	toks, _, err := l.Tokenize([]byte("if iffy"))
	if err != nil {
		t.Fatal(err)
	}
	// "if" → IF (rule order wins the tie); "iffy" → ID (longest match
	// beats the shorter IF prefix).
	if toks[0].Name != "IF" || toks[1].Name != "ID" {
		t.Fatalf("tokens = %v", names(toks))
	}
}

func TestLongestMatchBacktrack(t *testing.T) {
	// "ab" vs "abc": input "abd" must emit "ab" then restart at 'd'.
	l, err := New(Spec{Name: "bt", Rules: []Rule{
		{Name: "AB", Pattern: "ab"},
		{Name: "ABC", Pattern: "abc"},
		{Name: "D", Pattern: "d"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	toks, _, err := l.Tokenize([]byte("abd"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names(toks), ",") != "AB,D" {
		t.Fatalf("tokens = %v", names(toks))
	}
}

func TestLexError(t *testing.T) {
	l, _ := New(simpleSpec())
	_, _, err := l.Tokenize([]byte("x @ y"))
	var le *Error
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if le.Pos != 2 || le.Byte != '@' {
		t.Errorf("error = %+v", le)
	}
	if !strings.Contains(le.Error(), "offset 2") {
		t.Errorf("message = %q", le.Error())
	}
}

func TestModes(t *testing.T) {
	// A tiny XML-ish modal lexer: text mode vs tag mode.
	l, err := New(Spec{Name: "xmlish", Rules: []Rule{
		{Name: "LT", Pattern: "<", SetMode: "tag"},
		{Name: "TEXT", Pattern: "[^<]+"},
		{Name: "NAME", Pattern: `[a-z]+`, Mode: "tag"},
		{Name: "GT", Pattern: ">", Mode: "tag", SetMode: DefaultMode},
		{Name: "TWS", Pattern: `\s+`, Mode: "tag", Skip: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	toks, _, err := l.Tokenize([]byte("<a>hi there<b>x"))
	if err != nil {
		t.Fatal(err)
	}
	want := "LT,NAME,GT,TEXT,LT,NAME,GT,TEXT"
	if strings.Join(names(toks), ",") != want {
		t.Fatalf("tokens = %v, want %s", names(toks), want)
	}
	if l.NumModes() != 2 {
		t.Errorf("NumModes = %d", l.NumModes())
	}
}

func TestNewErrors(t *testing.T) {
	// Empty-matching rule.
	if _, err := New(Spec{Name: "x", Rules: []Rule{{Name: "A", Pattern: "a*"}}}); err == nil {
		t.Error("nullable pattern should be rejected")
	}
	// Undefined mode target.
	if _, err := New(Spec{Name: "x", Rules: []Rule{{Name: "A", Pattern: "a", SetMode: "zzz"}}}); err == nil {
		t.Error("undefined SetMode should be rejected")
	}
	// No default-mode rules.
	if _, err := New(Spec{Name: "x", Rules: []Rule{{Name: "A", Pattern: "a", Mode: "other"}}}); err == nil {
		t.Error("missing default mode should be rejected")
	}
	// Bad pattern.
	if _, err := New(Spec{Name: "x", Rules: []Rule{{Name: "A", Pattern: "("}}}); err == nil {
		t.Error("bad pattern should be rejected")
	}
}

func TestEmptyInput(t *testing.T) {
	l, _ := New(simpleSpec())
	toks, stats, err := l.Tokenize(nil)
	if err != nil || len(toks) != 0 || stats.Bytes != 0 {
		t.Fatalf("toks=%v stats=%+v err=%v", toks, stats, err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	l, err := New(simpleSpec())
	if err != nil {
		b.Fatal(err)
	}
	doc := []byte(strings.Repeat("if x1 + 42 foo 9 bar ", 500))
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Tokenize(doc); err != nil {
			b.Fatal(err)
		}
	}
}
