// Package lang defines the four evaluation languages of the paper
// (Table III): Cool (object-oriented programming), DOT (graph
// visualization), JSON and XML (data interchange). Each language bundles
// a context-free grammar in the internal/grammar DSL with a modal lexer
// specification, and compiles unmodified to an ASPEN hDPDA — the paper's
// point that legacy grammars need no redesign.
package lang

import (
	"fmt"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/grammar"
	"aspen/internal/lexer"
)

// Language bundles a grammar with its tokenizer.
type Language struct {
	Name    string
	Grammar *grammar.Grammar
	LexSpec lexer.Spec
	// ResolveShiftReduce marks grammars whose remaining shift/reduce
	// conflicts are resolved in favor of shift (Cool's maximal-extent
	// "let"), as yacc-family tools do by default.
	ResolveShiftReduce bool

	// Prebuilt, when set, is the already-compiled machine Compile returns
	// instead of running the LR pipeline. Admitted uploads in non-grammar
	// formats (MNRL, .pda) arrive as finished hDPDAs; the registry still
	// speaks *Language, so the machine rides in here.
	Prebuilt *compile.Compiled
	// StackBound is the statically proven maximum stack depth (excluding
	// ⊥) for admitted machines; 0 means unproven (built-ins, which rely
	// on the runtime guard instead).
	StackBound int
	// Format records which upload format this language was admitted from
	// ("grammar", "mnrl", "pda"); empty for built-ins.
	Format string

	lex *lexer.Lexer
}

// Lexer returns the compiled tokenizer (built lazily, cached). It is
// the determinized table every scan runs; a spec whose DFA blows up
// fails here. The hardware cycle model is unaffected.
func (l *Language) Lexer() (*lexer.Lexer, error) {
	if l.lex == nil {
		lx, err := lexer.New(l.LexSpec)
		if err != nil {
			return nil, err
		}
		l.lex = lx
	}
	return l.lex, nil
}

// Compile builds the language's hDPDA with the given optimization set.
// A prebuilt machine (admitted MNRL/.pda upload) is returned as-is: it
// was constructed and statically checked once at admission, and every
// rebuild must serve the byte-identical machine.
func (l *Language) Compile(opts compile.Options) (*compile.Compiled, error) {
	if l.Prebuilt != nil {
		return l.Prebuilt, nil
	}
	if l.ResolveShiftReduce {
		opts.ResolveShiftReduce = true
	}
	return compile.FromGrammar(l.Grammar, opts)
}

// Syms converts lexer tokens to grammar terminals. Every non-skip rule
// name must be a grammar terminal.
func (l *Language) Syms(toks []lexer.Token) ([]grammar.Sym, error) {
	out := make([]grammar.Sym, len(toks))
	for i, t := range toks {
		s := l.Grammar.Lookup(t.Name)
		if s == grammar.NoSym || !l.Grammar.IsTerminal(s) {
			return nil, fmt.Errorf("lang %s: lexer rule %q is not a grammar terminal", l.Name, t.Name)
		}
		out[i] = s
	}
	return out, nil
}

// ParseOutcome summarizes a full lex+parse pipeline run.
type ParseOutcome struct {
	Accepted bool
	Tokens   int
	LexStats lexer.Stats
	Result   core.Result
}

// Parse runs the full pipeline — tokenize, map to terminals, execute the
// hDPDA — over a document.
func (l *Language) Parse(cm *compile.Compiled, input []byte, opts core.ExecOptions) (ParseOutcome, error) {
	lx, err := l.Lexer()
	if err != nil {
		return ParseOutcome{}, err
	}
	toks, lstats, err := lx.Tokenize(input)
	if err != nil {
		return ParseOutcome{LexStats: lstats}, err
	}
	syms, err := l.Syms(toks)
	if err != nil {
		return ParseOutcome{LexStats: lstats}, err
	}
	res, err := cm.ParseTokens(syms, opts)
	return ParseOutcome{
		Accepted: res.Accepted,
		Tokens:   len(toks),
		LexStats: lstats,
		Result:   res,
	}, err
}

// All returns the four evaluation languages in Table III order.
func All() []*Language {
	return []*Language{Cool(), DOT(), JSON(), XML()}
}

// ByName returns a language by (case-sensitive) name, or nil.
func ByName(name string) *Language {
	for _, l := range All() {
		if l.Name == name {
			return l
		}
	}
	return nil
}
