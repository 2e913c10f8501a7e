package main

import (
	"errors"
	"fmt"
	"strings"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/serve"
	"aspen/internal/stream"
)

// The correctness oracle. Every expected answer comes from the
// cycle-accurate simulator (stream.NewParser over core.Execution), never
// from the engine the server runs, and is computed before any timing.

// outcome is the part of a parse answer that must not depend on how the
// body was chunked on the wire. LexScanCycles is left out: it counts the
// bytes re-scanned at read boundaries, which vary with TCP segmentation.
type outcome struct {
	Grammar       string
	Accepted      bool
	Error         string
	Partial       bool
	Bytes         int
	Tokens        int
	Cycles        int
	EpsilonStalls int
	MaxStackDepth int
	Reports       int
}

func outcomeOf(r *serve.ParseResponse) outcome {
	return outcome{
		Grammar: r.Grammar, Accepted: r.Accepted, Error: r.Error, Partial: r.Partial,
		Bytes: r.Bytes, Tokens: r.Tokens, Cycles: r.Cycles, EpsilonStalls: r.EpsilonStalls,
		MaxStackDepth: r.MaxStackDepth, Reports: r.Reports,
	}
}

// expected is a document's reference answer: the outcome of the whole
// body in one read, and fedMax, the outcome when a read ends just before
// the byte a lexer error names. The server's counters after such an
// error depend on where its reads split the body (tokens lexed in an
// earlier read were already fed), so they may lie anywhere between the
// two; without a lexer error fedMax equals the outcome.
type expected struct {
	outcome
	fedMax outcome
}

// diff describes how got differs from want ("" = equal). After an
// error, Bytes counts what the server had read when the error surfaced;
// it must then lie between the error offset and the document length
// (want.Bytes), and every counter between the outcome and fedMax.
func (want expected) diff(got outcome) string {
	w := want.outcome
	if w.Error != "" && got.Error == w.Error {
		if got.Bytes <= w.Bytes && got.Bytes >= w.errorOffset() {
			got.Bytes = w.Bytes
		}
		m := want.fedMax
		if within(got.Tokens, w.Tokens, m.Tokens) && within(got.Cycles, w.Cycles, m.Cycles) &&
			within(got.EpsilonStalls, w.EpsilonStalls, m.EpsilonStalls) &&
			within(got.MaxStackDepth, w.MaxStackDepth, m.MaxStackDepth) && within(got.Reports, w.Reports, m.Reports) {
			got.Tokens, got.Cycles, got.EpsilonStalls, got.MaxStackDepth, got.Reports =
				w.Tokens, w.Cycles, w.EpsilonStalls, w.MaxStackDepth, w.Reports
		}
	}
	if got == w {
		return ""
	}
	return fmt.Sprintf("got %+v, want %+v (counters up to %+v)", got, w, want.fedMax)
}

func within(x, lo, hi int) bool { return x >= lo && x <= hi }

// errorOffset is the stream offset a lexer error names (0 if none).
func (want outcome) errorOffset() int {
	var off int
	if i := strings.Index(want.Error, "at offset "); i >= 0 {
		fmt.Sscanf(want.Error[i:], "at offset %d", &off)
	}
	return off
}

// oracle holds one simulator-compiled machine per grammar.
type oracle struct {
	langs map[string]*lang.Language
	cms   map[string]*compile.Compiled
}

func newOracle(grammars []string) (*oracle, error) {
	o := &oracle{langs: map[string]*lang.Language{}, cms: map[string]*compile.Compiled{}}
	for _, name := range grammars {
		l := serve.ResolveBuiltin(name)
		if l == nil {
			return nil, fmt.Errorf("unknown grammar %q", name)
		}
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		o.langs[name], o.cms[name] = l, cm
	}
	return o, nil
}

// parser returns a fresh simulator-backed streaming parser for grammar.
func (o *oracle) parser(grammar string) (*stream.Parser, error) {
	return stream.NewParser(o.langs[grammar], o.cms[grammar], core.ExecOptions{})
}

// whole is the reference answer for one document sent in one request.
// A stack overflow is reported as an error: the server answers it with
// 422, which no workload is meant to send. So is a document whose
// prefix before a lexer error already ends in another error, since the
// server's verdict would then depend on its read boundaries.
func (o *oracle) whole(grammar string, data []byte) (expected, error) {
	want, err := o.run(grammar, data)
	if err != nil {
		return expected{}, err
	}
	exp := expected{outcome: want, fedMax: want}
	if off := want.errorOffset(); want.Error != "" && off > 0 {
		if exp.fedMax, err = o.run(grammar, data[:off], data[off:]); err != nil {
			return expected{}, err
		}
		if exp.fedMax.Error != want.Error {
			return expected{}, fmt.Errorf("%s document: split before the lexer error it fails with %q", grammar, exp.fedMax.Error)
		}
	}
	return exp, nil
}

// run feeds a document to the simulator in the given writes and returns
// the outcome.
func (o *oracle) run(grammar string, writes ...[]byte) (outcome, error) {
	p, err := o.parser(grammar)
	if err != nil {
		return outcome{}, err
	}
	var werr error
	for _, b := range writes {
		if _, werr = p.Write(b); werr != nil {
			break
		}
	}
	out, cerr := p.Close()
	if werr == nil {
		werr = cerr
	}
	if errors.Is(werr, core.ErrStackOverflow) {
		return outcome{}, fmt.Errorf("%s document overflows the stack: %v", grammar, werr)
	}
	want := outcome{
		Grammar: grammar, Accepted: out.Accepted,
		Bytes: out.Bytes, Tokens: out.Tokens,
		Cycles:        out.Result.Consumed + out.Result.EpsilonStalls,
		EpsilonStalls: out.Result.EpsilonStalls,
		MaxStackDepth: out.Result.MaxStackDepth,
		Reports:       out.Result.ReportCount,
	}
	if werr != nil {
		want.Error = werr.Error()
	}
	return want, nil
}
