package admit

import (
	"errors"
	"fmt"
	"strings"

	"aspen/internal/compile"
	"aspen/internal/grammar"
	"aspen/internal/lang"
	"aspen/internal/lexer"
)

// The "grammar" upload format is the repo's LR grammar DSL extended
// with an inline tokenizer section: lines of the form
//
//	%lex NAME pattern...
//	%lex-skip NAME pattern...
//
// where the pattern is the rest of the line (the internal/nfa regex
// dialect). %lex rules must name declared %token terminals; %lex-skip
// rules are dropped tokens (whitespace, comments) and must NOT collide
// with a terminal name. The %lex lines are stripped before the grammar
// proper is parsed.

// parseGrammarUpload splits source into the lexer spec and the pure
// grammar DSL text.
func parseGrammarUpload(name string, source []byte) (string, lexer.Spec, *Rejection) {
	spec := lexer.Spec{Name: name}
	var g strings.Builder
	for ln, line := range strings.Split(string(source), "\n") {
		trimmed := strings.TrimSpace(line)
		skip := strings.HasPrefix(trimmed, "%lex-skip ")
		tok := !skip && strings.HasPrefix(trimmed, "%lex ")
		if !skip && !tok {
			g.WriteString(line)
			g.WriteByte('\n')
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(trimmed, "%lex-skip"), "%lex"))
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", spec, reject(name, FormatGrammar, Diagnostic{
				Check: CheckParse, Line: ln + 1,
				Message: fmt.Sprintf("line %d: %%lex needs a name and a pattern", ln+1)})
		}
		spec.Rules = append(spec.Rules, lexer.Rule{
			Name:    rest[:sp],
			Pattern: strings.TrimSpace(rest[sp:]),
			Skip:    skip,
		})
		// Keep line numbering stable for grammar.Parse errors.
		g.WriteByte('\n')
	}
	return g.String(), spec, nil
}

// admitGrammar parses and compiles a grammar-format upload.
func admitGrammar(name string, source []byte, lim Limits) (*lang.Language, *compile.Compiled, *Rejection) {
	gsrc, spec, rej := parseGrammarUpload(name, source)
	if rej != nil {
		return nil, nil, rej
	}
	if len(spec.Rules) == 0 {
		return nil, nil, reject(name, FormatGrammar, Diagnostic{
			Check:   CheckParse,
			Message: "no %lex rules: a grammar upload must define its tokenizer"})
	}
	g, err := grammar.Parse(gsrc)
	if err != nil {
		return nil, nil, reject(name, FormatGrammar, Diagnostic{
			Check: CheckParse, Message: err.Error()})
	}
	g.Name = name

	// Every non-skip lexer rule must be a declared terminal, and every
	// terminal must be producible by some rule — a terminal no token can
	// ever become makes part of the grammar unreachable at runtime.
	producible := map[string]bool{}
	for _, r := range spec.Rules {
		if r.Skip {
			continue
		}
		s := g.Lookup(r.Name)
		if s == grammar.NoSym || !g.IsTerminal(s) {
			return nil, nil, reject(name, FormatGrammar, Diagnostic{
				Check: CheckParse, Symbol: r.Name,
				Message: fmt.Sprintf("%%lex rule %q does not name a declared %%token terminal", r.Name)})
		}
		producible[r.Name] = true
	}
	for _, s := range g.Terminals() {
		if tn := g.SymName(s); !producible[tn] {
			return nil, nil, reject(name, FormatGrammar, Diagnostic{
				Check: CheckCompleteness, Symbol: tn,
				Message: fmt.Sprintf("terminal %q has no %%lex rule: no input can ever produce it", tn)})
		}
	}

	// The lexer itself must compile: bad regex patterns, and a DFA
	// past the determinization cap, surface here. The language caches
	// the lexer, so serving does not build it again.
	l := &lang.Language{Name: name, Grammar: g, LexSpec: spec}
	if _, err := l.Lexer(); err != nil {
		return nil, nil, reject(name, FormatGrammar, Diagnostic{
			Check: CheckParse, Message: fmt.Sprintf("tokenizer: %v", err)})
	}
	cm, err := compile.FromGrammar(g, compile.OptAll)
	if err != nil {
		// LR construction failures are grammar-level nondeterminism
		// (shift/reduce, reduce/reduce) or table overflow; classify the
		// conflict as a determinism finding, size as limits.
		check := CheckDeterminism
		var size *compile.StateLimitError
		if errors.As(err, &size) {
			check = CheckLimits
		}
		return nil, nil, reject(name, FormatGrammar, Diagnostic{
			Check: check, Message: err.Error()})
	}
	return l, cm, nil
}
