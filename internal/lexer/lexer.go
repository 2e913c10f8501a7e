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
// under integer mode indices. The Token API runs the longest-match loop
// over it. The code path (Bound.Scan, which writes machine codes
// straight into the buffer the parser feeds) steps each byte once: an
// accept state's row carries tunnel entries, so the byte that ends one
// lexeme steps straight into the next, and the loop hands the rare cases
// (backtracking, errors, the end of the input) to the longest-match
// loop. Stats still count the NFA's symbol and handoff cycles, so the
// hardware model sees the same inputs.
package lexer

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
//
// Two more bits mark an entry rather than its state: a tunnel entry in
// an accept state's row ends that state's lexeme on the entry's byte and
// names the state the next lexeme reaches on the same byte (see New).
const (
	kindDead   = 1 << iota // state 0: no rule can match any more
	kindAccept             // some rule's lexeme may end here
	kindLoop               // loops to itself on every byte but exit[s]
	kindTunnel             // entry: the lexeme ends, the next one steps on
	kindEmit               // entry: a tunnel out of a non-skip accept state

	kindMask = 0xff
	kindEnd  = kindDead | kindTunnel // entry: the stepped lexeme is over
)

// Per-state emission codes: a machine code ≥ 0, or one of these.
const (
	emitSkip = -1 // a skip rule's lexeme is dropped
	emitNone = -2 // the rule's name is not a terminal of the bound machine

	// noneSym is the code slot Scan's loop writes for an emitNone state.
	noneSym = emitNone & 0xff
)

// Lexer is a compiled tokenizer: every mode's DFA merged into one dense
// table under integer mode indices. Mode 0 is DefaultMode; the others
// follow in name order. A Lexer is immutable, so one serves concurrent
// scans.
type Lexer struct {
	spec  Spec
	modes []string // mode index → name
	start []uint32 // mode index → the table entry of the mode's start state
	first []uint32 // mode index → the mode's lowest state; modes are contiguous

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
//
// An accept state's dead entries then become tunnels: the byte that
// ends its lexeme is the first byte of the next one, so the entry is
// the one the start state of the rule's next mode takes on that byte.
// A byte no rule of the next mode starts with stays dead.
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
		first: make([]uint32, len(modes)),
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
		l.start[mi], l.first[mi] = base+uint32(d.Start), base
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
	// Start states accept nothing, so no row read here is rewritten.
	for s, k := range kind {
		if k&kindAccept == 0 {
			continue
		}
		flag := uint32(kindTunnel | kindEmit)
		if l.emit[s] == emitSkip {
			flag = kindTunnel
		}
		row := l.trans[s<<8 : s<<8+256]
		next := l.trans[l.start[l.next[s]]&^kindMask:][:256]
		for b, e := range row {
			if e == kindDead && next[b] != kindDead {
				row[b] = next[b] | flag
			}
		}
	}
	return l, nil
}

// modeOf returns the mode whose DFA holds state s (not the dead state).
func (l *Lexer) modeOf(s uint32) int {
	m := len(l.first) - 1
	for s < l.first[m] {
		m--
	}
	return m
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
	consumed, m, stats, err := l.scan(&out, input, 0, m, streaming)
	return out.toks, consumed, l.modes[m], stats, err
}

// Bound is a Lexer bound to one machine's input alphabet: each accept
// state carries its rule's machine code, so the code path emits a
// lexeme with one table load. Like the Lexer, it is immutable.
type Bound struct {
	*Lexer
	emit []int16
	// partial is set when some accept state's rule is not a terminal
	// of the machine.
	partial bool
}

// Bind resolves every accept state's rule to a machine code through
// code, which reports ok=false for a rule whose name is not a terminal
// of the machine. Skip rules are not asked.
func (l *Lexer) Bind(code func(rule int) (core.Symbol, bool)) *Bound {
	b := &Bound{Lexer: l, emit: make([]int16, len(l.emit))}
	for s, e := range l.emit {
		b.emit[s] = e
		if l.rule[s] < 0 || e == emitSkip {
			continue
		}
		b.emit[s] = emitNone
		if c, ok := code(int(l.rule[s])); ok {
			b.emit[s] = int16(c)
		} else {
			b.partial = true
		}
	}
	return b
}

// Codes is the code path's output, reused across scans.
type Codes struct {
	// Syms holds the machine code of each non-skip lexeme in input
	// order, up to the first lexeme whose rule is not a terminal. Scan
	// gives it one slot per input byte.
	Syms []core.Symbol
	// NonTerminal is the rule of the first lexeme whose name is not a
	// terminal of the bound machine, or -1. The scan lexes on past it,
	// so a later lex error still surfaces, but emits no more codes.
	NonTerminal int
}

// Scan lexes input starting in mode (an index), resetting out and
// appending to it a code per non-skip lexeme. With final false, input
// is a prefix of a longer stream and a lexeme alive at its end is held
// back, as in TokenizeChunk; with final true the input ends the stream,
// as in TokenizeResume. It returns the bytes consumed, the mode there,
// and the scan's Stats; after a lex error out holds the lexemes before
// it. Scan keeps no offsets: Start recovers the one a caller needs.
//
// Scan steps each byte once (see steps), jumping over a self-looping
// state's run with bytes.IndexByte. The loop stops at a dead entry (a
// lexeme that must back up to an earlier accept, or a lex error) and at
// the end of input; the end mode is read off the state it stops in.
// Unless a non-final scan holds the current lexeme back, the input from
// that lexeme's start goes to the longest-match loop. A lexeme whose
// rule is not a terminal leaves noneSym in its slot; if one did (or a
// terminal's code equals it), the longest-match loop redoes the whole
// input.
func (b *Bound) Scan(out *Codes, input []byte, mode int, final bool) (consumed, endMode int, stats Stats, err error) {
	l := b.Lexer
	syms := slices.Grow(out.Syms[:0], len(input))[:len(input)]
	// The loop's packed counters cap it at 4 GiB - 1 bytes; the
	// longest-match loop takes any rest.
	hot := input
	if limit := uint64(math.MaxUint32); uint64(len(input)) > limit {
		hot = input[:limit]
	}
	c := cursor{e: l.start[mode]}
	for b.steps(&c, syms, hot) {
		j := bytes.IndexByte(hot[c.i:], l.exit[c.e>>8])
		if j < 0 {
			j = len(hot) - c.i
		}
		c.i += j
	}
	n, lexemes, start := int(uint32(c.cnt)), int(c.cnt>>32), c.start
	// Each lexeme the loop ended was stepped once more for the byte its
	// tunnel re-presents.
	stats = Stats{Bytes: len(input), Tokens: lexemes, ScanCycles: start + lexemes, HandoffCycles: 2 * n}
	endMode = l.modeOf(c.e >> 8)
	switch {
	case b.partial && slices.Contains(syms[:n], noneSym):
		n, stats, start, endMode = 0, Stats{Bytes: len(input)}, 0, mode
	case c.i == len(input) && !final:
		stats.ScanCycles += len(input) - start
		out.Syms, out.NonTerminal = syms[:n], -1
		return start, endMode, stats, nil
	}
	rest := sink{emit: b.emit, codes: true, syms: syms, n: n, stop: -1}
	consumed, endMode, more, err := l.scan(&rest, input, start, endMode, !final)
	stats.Tokens += more.Tokens
	stats.ScanCycles += more.ScanCycles
	stats.HandoffCycles += more.HandoffCycles
	out.Syms, out.NonTerminal = syms[:rest.n], rest.nonTerm
	return consumed, endMode, stats, err
}

// cursor is Scan's loop state: the state named e, reached at input[i],
// and the start of its lexeme; cnt packs the codes written (low 32
// bits) with the lexemes ended (high 32 bits), so the loop keeps every
// value it carries in a register.
type cursor struct {
	e        uint32
	i, start int
	cnt      uint64
}

// steps is Scan's loop: one table load per byte, from c until a dead
// entry, a self-looping state or the end of input. It reports whether
// it stopped in a self-looping state. Every byte writes the current
// state's code into the next free slot; a tunnel out of a non-skip
// accept state keeps it, as the count of written codes advances by the
// entry's kindEmit bit. Neither that nor the lexeme count or start
// takes a branch, which on token-dense input would mispredict.
func (b *Bound) steps(c *cursor, syms []core.Symbol, input []byte) bool {
	trans, emit := b.trans, b.emit
	syms = syms[:len(input)]
	e, i, start, cnt := c.e, c.i, c.start, c.cnt
	loop := false
	for i < len(input) {
		syms[uint32(cnt)] = core.Symbol(emit[e>>8])
		t := trans[e&^kindMask|uint32(input[i])]
		if t&kindDead != 0 {
			break
		}
		if t&kindTunnel != 0 {
			start = i
		}
		cnt += uint64(t/kindEmit&1) | uint64(t/kindTunnel&1)<<32
		e = t
		i++
		if t&kindLoop != 0 {
			loop = true
			break
		}
	}
	c.e, c.i, c.start, c.cnt = e, i, start, cnt
	return loop
}

// Start returns the start offset of the code out.Syms[k] that Scan
// wrote for input in mode. It re-runs the longest-match loop from the
// start of input up to that lexeme, rewriting the same codes before it
// in place, so a parser pays for it once: on the code its machine jams
// on.
func (b *Bound) Start(out *Codes, input []byte, mode, k int) int {
	find := sink{emit: b.emit, codes: true, syms: slices.Grow(out.Syms[:0], len(input))[:len(input)], stop: k}
	pos, _, _, _ := b.scan(&find, input, 0, mode, false)
	return pos
}

// sink receives the longest-match loop's lexemes through a per-state
// emission table: Token values for the Token API, or machine codes into
// the code path's slots.
type sink struct {
	emit []int16
	toks []Token

	codes   bool
	syms    []core.Symbol // one slot per input byte
	n       int           // codes written
	nonTerm int           // as Codes.NonTerminal, once set
	stop    int           // stop at the lexeme that would write code stop (-1: never)
}

// token appends the Token API's token for a lexeme accepted in state
// acc.
func (s *sink) token(l *Lexer, acc uint32, start, end int) {
	r := l.rule[acc]
	s.toks = append(s.toks, Token{Rule: int(r), Name: l.spec.Rules[r].Name, Start: start, End: end})
}

// scan is the longest-match loop, from pos to the end of input. Each
// lexeme steps the merged table from its mode's start state until an
// entry ends it (dead, or a tunnel, which this loop does not take),
// remembering the last accept state; a kindLoop state jumps to its exit
// byte with bytes.IndexByte, and the bytes it passes count as stepped.
// The lexeme then emits, switches mode, and the next starts at its end,
// its first byte stepped again. When streaming, a lexeme still alive at
// the end of input is held back: more input could extend it. Stats count
// from pos.
func (l *Lexer) scan(out *sink, input []byte, pos, mode int, streaming bool) (consumed, endMode int, stats Stats, err error) {
	trans, emit := l.trans, out.emit
	syms, n := out.syms, out.n
	nonTerm := -1
	var cycles, lexemes, handoffs int
lexing:
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
			if t&kindEnd != 0 {
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
		if streaming && t&kindEnd == 0 {
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
			case !out.codes:
				out.token(l, acc, pos, best)
			case nonTerm >= 0:
			case e >= 0:
				if n == out.stop {
					break lexing
				}
				syms[n] = core.Symbol(e)
				n++
			default:
				nonTerm = int(l.rule[acc])
			}
		}
		mode = int(l.next[acc])
		pos = best
	}
	out.n, out.nonTerm = n, nonTerm
	return pos, mode, Stats{Bytes: len(input), Tokens: lexemes, ScanCycles: cycles, HandoffCycles: handoffs}, err
}

// Text returns the lexeme of t within input.
func (t Token) Text(input []byte) string { return string(input[t.Start:t.End]) }
