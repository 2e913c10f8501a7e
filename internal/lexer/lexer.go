// Package lexer implements ASPEN's lexical-analysis model (paper §IV-D):
// tokens are recognized by homogeneous NFAs (the Cache Automaton
// substrate), the longest match is identified by running the NFA until
// state exhaustion (Active State Vector goes to zero) while a report
// register tracks the most recent accepting report, and a reporting mask
// selects which rules are live in the current lexer mode. Each emitted
// report is converted to a token and handed to the DPDA input buffer in
// two cycles.
//
// In software the NFAs are the construction, not the runtime: New
// determinizes every mode and merges the DFAs into one dense table
// under integer mode indices, and both the Token API and the code path
// (Bound.Scan, which writes machine codes straight into the buffer the
// parser feeds) run the same longest-match loop over it. Stats still
// count the NFA's symbol and handoff cycles, so the hardware model sees
// the same inputs.
package lexer

import (
	"bytes"
	"fmt"
	"sort"

	"aspen/internal/core"
	"aspen/internal/nfa"
	"aspen/internal/telemetry"
)

// DefaultMode is the mode rules belong to when none is given.
const DefaultMode = "main"

// Rule describes one token rule.
type Rule struct {
	// Name is the token name (typically a grammar terminal).
	Name string
	// Pattern is the regular expression (package nfa dialect).
	Pattern string
	// Skip drops matches (whitespace, comments) instead of emitting
	// tokens.
	Skip bool
	// Mode is the lexer mode in which the rule is active (DefaultMode if
	// empty). This models the hardware's reporting-mask register.
	Mode string
	// SetMode, when non-empty, switches the lexer to this mode after the
	// rule matches.
	SetMode string
}

// Spec is a complete tokenizer description. Earlier rules win ties
// (keyword-over-identifier priority).
type Spec struct {
	Name  string
	Rules []Rule
}

// Token is one lexed token.
type Token struct {
	// Rule is the index into Spec.Rules.
	Rule int
	// Name is the rule's token name.
	Name string
	// Start and End delimit the lexeme as byte offsets [Start, End).
	Start, End int
}

// Stats model the lexer's cycle behaviour on ASPEN.
type Stats struct {
	// Bytes is the input length.
	Bytes int
	// Tokens is the number of tokens emitted (including skipped
	// lexemes).
	Tokens int
	// ScanCycles counts NFA symbol cycles, including the lookahead
	// bytes re-scanned after each longest-match backtrack and the bytes
	// a self-loop jump passes over.
	ScanCycles int
	// HandoffCycles counts report-to-token conversion cycles (2 per
	// emitted report, §V-A).
	HandoffCycles int
}

// Observe adds the stats to reg's lexer series, so tokenization work is
// queryable next to the parser's cycle counts. Streaming callers invoke
// it per chunk; note that Bytes and ScanCycles then include the bytes
// re-presented (and re-scanned) after a longest-match boundary wait, so
// they measure work performed, not input length.
func (s Stats) Observe(reg *telemetry.Registry) {
	reg.Counter("lexer_bytes_total", "bytes presented to the lexer (including chunk-boundary re-presentation)").Add(int64(s.Bytes))
	reg.Counter("lexer_tokens_total", "tokens emitted (including skipped lexemes)").Add(int64(s.Tokens))
	reg.Counter("lexer_scan_cycles_total", "NFA symbol cycles, including longest-match backtrack re-scans").Add(int64(s.ScanCycles))
	reg.Counter("lexer_handoff_cycles_total", "report-to-token conversion cycles (2 per emitted report)").Add(int64(s.HandoffCycles))
}

// Error is a lexing failure at a position.
type Error struct {
	Spec string
	Pos  int
	Byte byte
	Mode string
}

func (e *Error) Error() string {
	return fmt.Sprintf("lexer %s: no rule matches at offset %d (byte %q, mode %s)", e.Spec, e.Pos, e.Byte, e.Mode)
}

// Per-state kind bits, carried in the low byte of every table entry
// that leads to the state. A state with none set is an interior state
// of some lexeme: the scan steps straight on.
const (
	kindDead   = 1 << iota // state 0: no rule can match any more
	kindAccept             // some rule's lexeme may end here
	kindLoop               // loops to itself on every byte but exit[s]

	kindMask = 0xff
)

// Per-state emission codes: a machine code ≥ 0, or one of these.
const (
	emitSkip = -1 // a skip rule's lexeme is dropped
	emitNone = -2 // the rule's name is not a terminal of the bound machine
)

// Lexer is a compiled tokenizer: every mode's DFA merged into one dense
// table under integer mode indices. Mode 0 is DefaultMode; the others
// follow in name order. A Lexer is immutable, so one serves concurrent
// scans.
type Lexer struct {
	spec  Spec
	modes []string // mode index → name
	start []uint32 // mode index → the table entry of the mode's start state

	// trans is the merged transition table. An entry names a state t as
	// t<<8 | kind(t), which is both t's row offset and its kind bits:
	// the entry for byte b in the state named e is trans[e&^kindMask|b].
	// State 0 is dead and absorbs every byte.
	trans []uint32
	// Per state: for an accept state the rule it accepts (the earliest
	// rule on a tie; -1 if it accepts none), the mode in effect after
	// that rule, and the Token API's emission code (0 or emitSkip); for
	// a kindLoop state the one byte that leaves it.
	rule []int32
	next []int32
	emit []int16
	exit []byte
}

// New compiles a spec: each mode's rules become one NFA, which is
// determinized (subset construction, so a scan costs one table lookup
// per byte) and merged into the lexer's table. All patterns must be
// non-nullable (a rule matching the empty string could never advance
// the input), and a mode whose DFA exceeds the subset construction's
// state cap is an error.
func New(spec Spec) (*Lexer, error) {
	byMode := map[string][]int{}
	for i, r := range spec.Rules {
		mode := r.Mode
		if mode == "" {
			mode = DefaultMode
		}
		byMode[mode] = append(byMode[mode], i)
	}
	if len(byMode[DefaultMode]) == 0 {
		return nil, fmt.Errorf("lexer %s: no rules in mode %q", spec.Name, DefaultMode)
	}
	// Mode switch targets must exist.
	for _, r := range spec.Rules {
		if r.SetMode != "" && len(byMode[r.SetMode]) == 0 {
			return nil, fmt.Errorf("lexer %s: rule %q switches to undefined mode %q", spec.Name, r.Name, r.SetMode)
		}
	}
	modes := make([]string, 0, len(byMode))
	for m := range byMode {
		if m != DefaultMode {
			modes = append(modes, m)
		}
	}
	sort.Strings(modes)
	modes = append([]string{DefaultMode}, modes...)
	index := make(map[string]int32, len(modes))
	for i, m := range modes {
		index[m] = int32(i)
	}

	dfas := make([]*nfa.DFA, len(modes))
	states := 1 // the dead state
	for mi, m := range modes {
		idxs := byMode[m]
		pats := make([]string, len(idxs))
		for j, i := range idxs {
			pats[j] = spec.Rules[i].Pattern
		}
		n, err := nfa.CompilePatterns(spec.Name+":"+m, pats)
		if err != nil {
			return nil, fmt.Errorf("lexer %s mode %s: %w", spec.Name, m, err)
		}
		if n.AcceptEmpty {
			return nil, fmt.Errorf("lexer %s mode %s: rule %q matches the empty string",
				spec.Name, m, spec.Rules[idxs[n.EmptyReport]].Name)
		}
		d, err := n.Determinize()
		if err != nil {
			return nil, fmt.Errorf("lexer %s mode %s: %w", spec.Name, m, err)
		}
		dfas[mi] = d
		states += d.NumStates()
	}

	l := &Lexer{
		spec:  spec,
		modes: modes,
		start: make([]uint32, len(modes)),
		trans: make([]uint32, states<<8),
		rule:  make([]int32, states),
		next:  make([]int32, states),
		emit:  make([]int16, states),
		exit:  make([]byte, states),
	}
	// Lay the mode DFAs out one after another behind the dead state,
	// first with plain state numbers.
	kind := make([]uint32, states)
	kind[0], l.rule[0] = kindDead, -1
	base := uint32(1)
	for mi, d := range dfas {
		idxs := byMode[modes[mi]]
		l.start[mi] = base + uint32(d.Start)
		for s := range d.Report {
			ms := base + uint32(s)
			row := l.trans[ms<<8 : ms<<8+256]
			for b, t := range d.Trans[s<<8 : s<<8+256] {
				if t >= 0 {
					row[b] = base + uint32(t)
				}
			}
			l.rule[ms], l.next[ms] = -1, int32(mi)
			if rep := d.Report[s]; rep >= 0 {
				r := &spec.Rules[idxs[rep]]
				kind[ms] = kindAccept
				l.rule[ms] = int32(idxs[rep])
				if r.SetMode != "" {
					l.next[ms] = index[r.SetMode]
				}
				if r.Skip {
					l.emit[ms] = emitSkip
				}
			}
			// A state that leaves itself on exactly one byte lets the
			// scan jump to that byte instead of stepping each one.
			exits, exit := 0, 0
			for b, t := range row {
				if t != ms {
					exits, exit = exits+1, b
				}
			}
			if exits == 1 {
				kind[ms] |= kindLoop
				l.exit[ms] = byte(exit)
			}
		}
		base += uint32(d.NumStates())
	}
	// Then name every state by its entry.
	for i, t := range l.trans {
		l.trans[i] = t<<8 | kind[t]
	}
	for mi, t := range l.start {
		l.start[mi] = t<<8 | kind[t]
	}
	return l, nil
}

// NumModes returns the number of lexer modes.
func (l *Lexer) NumModes() int { return len(l.modes) }

// Mode returns the index of the named mode.
func (l *Lexer) Mode(name string) (int, bool) {
	for i, m := range l.modes {
		if m == name {
			return i, true
		}
	}
	return 0, false
}

// ModeName returns the name of mode index m.
func (l *Lexer) ModeName(m int) string { return l.modes[m] }

// Tokenize scans input to completion, returning the non-skip tokens and
// cycle statistics.
func (l *Lexer) Tokenize(input []byte) ([]Token, Stats, error) {
	toks, stats, _, err := l.TokenizeResume(input, DefaultMode)
	return toks, stats, err
}

// TokenizeResume scans input starting in the given mode and additionally
// returns the mode in effect after the final token — the state a
// streaming caller must carry across chunk boundaries.
func (l *Lexer) TokenizeResume(input []byte, mode string) ([]Token, Stats, string, error) {
	toks, _, mode, stats, err := l.tokenize(nil, input, mode, false)
	return toks, stats, mode, err
}

// TokenizeResumeInto is TokenizeResume appending into dst (pass
// dst[:0] to reuse its capacity across calls, the pooled-parser path).
func (l *Lexer) TokenizeResumeInto(dst []Token, input []byte, mode string) ([]Token, Stats, string, error) {
	toks, _, mode, stats, err := l.tokenize(dst, input, mode, false)
	return toks, stats, mode, err
}

// TokenizeChunk scans input as a *prefix of a longer stream*: it stops
// before the final lexeme whenever that lexeme touches the end of the
// chunk with live NFA states (more data could extend the match, so the
// longest-match decision is not yet safe). It returns the completed
// tokens, the number of bytes definitely consumed, and the mode at the
// consumption point; the caller re-presents input[consumed:] prefixed to
// the next chunk.
func (l *Lexer) TokenizeChunk(input []byte, mode string) (toks []Token, consumed int, endMode string, stats Stats, err error) {
	return l.tokenize(nil, input, mode, true)
}

// TokenizeChunkInto is TokenizeChunk appending into dst (pass dst[:0]
// to reuse its capacity across chunks).
func (l *Lexer) TokenizeChunkInto(dst []Token, input []byte, mode string) (toks []Token, consumed int, endMode string, stats Stats, err error) {
	return l.tokenize(dst, input, mode, true)
}

// tokenize is the Token API's entry to scan: mode names in and out.
func (l *Lexer) tokenize(dst []Token, input []byte, mode string, streaming bool) ([]Token, int, string, Stats, error) {
	m, ok := l.Mode(mode)
	if !ok {
		return dst, 0, mode, Stats{Bytes: len(input)}, fmt.Errorf("lexer %s: unknown mode %q", l.spec.Name, mode)
	}
	out := sink{emit: l.emit, toks: dst}
	consumed, m, stats, err := l.scan(&out, input, m, streaming)
	return out.toks, consumed, l.modes[m], stats, err
}

// Bound is a Lexer bound to one machine's input alphabet: each accept
// state carries its rule's machine code, so the code path emits a
// lexeme with one table load. Like the Lexer, it is immutable.
type Bound struct {
	*Lexer
	emit []int16
}

// Bind resolves every accept state's rule to a machine code through
// code, which reports ok=false for a rule whose name is not a terminal
// of the machine. Skip rules are not asked.
func (l *Lexer) Bind(code func(rule int) (core.Symbol, bool)) *Bound {
	emit := make([]int16, len(l.emit))
	for s, e := range l.emit {
		emit[s] = e
		if l.rule[s] < 0 || e == emitSkip {
			continue
		}
		emit[s] = emitNone
		if c, ok := code(int(l.rule[s])); ok {
			emit[s] = int16(c)
		}
	}
	return &Bound{Lexer: l, emit: emit}
}

// Codes is the code path's output, reused across scans.
type Codes struct {
	// Syms holds the machine code of each non-skip lexeme in input
	// order, up to the first lexeme whose rule is not a terminal.
	Syms []core.Symbol
	// Starts holds each code's lexeme start offset in the scanned input.
	Starts []int
	// NonTerminal is the rule of the first lexeme whose name is not a
	// terminal of the bound machine, or -1. The scan lexes on past it,
	// so a later lex error still surfaces, but emits no more codes.
	NonTerminal int
}

// Scan lexes input starting in mode (an index), resetting out and
// appending to it a code and start offset per non-skip lexeme. With
// final false, input is a prefix of a longer stream and a lexeme alive
// at its end is held back, as in TokenizeChunk; with final true the
// input ends the stream, as in TokenizeResume. It returns the bytes
// consumed, the mode there, and the scan's Stats; after a lex error out
// holds the lexemes before it.
func (b *Bound) Scan(out *Codes, input []byte, mode int, final bool) (consumed, endMode int, stats Stats, err error) {
	out.Syms, out.Starts, out.NonTerminal = out.Syms[:0], out.Starts[:0], -1
	return b.scan(&sink{emit: b.emit, codes: out}, input, mode, !final)
}

// sink receives a scan's lexemes through a per-state emission table:
// Token values for the Token API (codes nil), or machine codes and
// start offsets for the code path.
type sink struct {
	emit  []int16
	toks  []Token
	codes *Codes
}

// token appends the Token API's token for a lexeme accepted in state
// acc.
func (s *sink) token(l *Lexer, acc uint32, start, end int) {
	r := l.rule[acc]
	s.toks = append(s.toks, Token{Rule: int(r), Name: l.spec.Rules[r].Name, Start: start, End: end})
}

// scan is the longest-match loop every entry point runs. Each lexeme
// steps the merged table from its mode's start state until the dead
// state, remembering the last accept state; a kindLoop state jumps to
// its exit byte with bytes.IndexByte, and the bytes it passes count as
// stepped. The lexeme then emits, switches mode, and the next starts at
// its end. When streaming, a lexeme still alive at the end of input is
// held back: more input could extend it.
func (l *Lexer) scan(out *sink, input []byte, mode int, streaming bool) (consumed, endMode int, stats Stats, err error) {
	trans, emit := l.trans, out.emit
	tokens := out.codes == nil
	var (
		syms    []core.Symbol
		starts  []int
		nonTerm = -1
	)
	if !tokens {
		syms, starts = out.codes.Syms, out.codes.Starts
	}
	var cycles, lexemes, handoffs int
	pos := 0
	for pos < len(input) {
		t := l.start[mode]
		best, acc := -1, uint32(0)
		i := pos
		for i < len(input) {
			t = trans[t&^kindMask|uint32(input[i])]
			i++
			if t&kindMask == 0 {
				continue
			}
			if t&kindDead != 0 {
				break
			}
			if t&kindAccept != 0 {
				best, acc = i, t>>8
			}
			if t&kindLoop != 0 {
				j := bytes.IndexByte(input[i:], l.exit[t>>8])
				if j < 0 {
					j = len(input) - i
				}
				i += j
				if t&kindAccept != 0 {
					best = i
				}
			}
		}
		cycles += i - pos
		if streaming && t&kindDead == 0 {
			break
		}
		if best < 0 {
			err = &Error{Spec: l.spec.Name, Pos: pos, Byte: input[pos], Mode: l.modes[mode]}
			break
		}
		lexemes++
		if e := emit[acc]; e != emitSkip {
			handoffs += 2
			switch {
			case tokens:
				out.token(l, acc, pos, best)
			case nonTerm >= 0:
			case e >= 0:
				syms = append(syms, core.Symbol(e))
				starts = append(starts, pos)
			default:
				nonTerm = int(l.rule[acc])
			}
		}
		mode = int(l.next[acc])
		pos = best
	}
	if !tokens {
		out.codes.Syms, out.codes.Starts, out.codes.NonTerminal = syms, starts, nonTerm
	}
	return pos, mode, Stats{Bytes: len(input), Tokens: lexemes, ScanCycles: cycles, HandoffCycles: handoffs}, err
}

// Text returns the lexeme of t within input.
func (t Token) Text(input []byte) string { return string(input[t.Start:t.End]) }
