package lexer_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"aspen/internal/core"
	"aspen/internal/lang"
	"aspen/internal/lexer"
	"aspen/internal/nfa"
)

// nfaLexer is the reference tokenizer: each mode's NFA stepped one
// active-state vector per byte, the hardware model itself. It shares no
// code with the merged DFA table, so it checks the scan independently.
type nfaLexer struct {
	spec  lexer.Spec
	modes map[string]*nfaMode
}

type nfaMode struct {
	run   *nfa.Run
	rules []int // report code → rule index
}

func newNFALexer(spec lexer.Spec) (*nfaLexer, error) {
	byMode := map[string][]int{}
	for i, r := range spec.Rules {
		mode := r.Mode
		if mode == "" {
			mode = lexer.DefaultMode
		}
		byMode[mode] = append(byMode[mode], i)
	}
	l := &nfaLexer{spec: spec, modes: map[string]*nfaMode{}}
	for m, idxs := range byMode {
		pats := make([]string, len(idxs))
		for j, i := range idxs {
			pats[j] = spec.Rules[i].Pattern
		}
		n, err := nfa.CompilePatterns(spec.Name+":"+m, pats)
		if err != nil {
			return nil, err
		}
		l.modes[m] = &nfaMode{run: n.NewRun(), rules: idxs}
	}
	return l, nil
}

// scan is the longest-match loop over the NFA: step until the active
// set empties, remember the last report, emit, switch mode, restart at
// the lexeme's end; when streaming, hold back a lexeme alive at the end
// of input.
func (l *nfaLexer) scan(input []byte, mode string, streaming bool) (toks []lexer.Token, consumed int, endMode string, stats lexer.Stats, err error) {
	stats = lexer.Stats{Bytes: len(input)}
	pos := 0
	for pos < len(input) {
		mn := l.modes[mode]
		mn.run.Reset()
		best, bestRule := -1, -1
		alive := false
		i := pos
		for i < len(input) {
			var rep int32
			alive, rep = mn.run.Step(core.Symbol(input[i]))
			i++
			if rep >= 0 {
				best, bestRule = i, mn.rules[rep]
			}
			if !alive {
				break
			}
		}
		stats.ScanCycles += i - pos
		if streaming && alive {
			return toks, pos, mode, stats, nil
		}
		if best < 0 {
			return toks, pos, mode, stats, &lexer.Error{Spec: l.spec.Name, Pos: pos, Byte: input[pos], Mode: mode}
		}
		rule := &l.spec.Rules[bestRule]
		stats.Tokens++
		if !rule.Skip {
			toks = append(toks, lexer.Token{Rule: bestRule, Name: rule.Name, Start: pos, End: best})
			stats.HandoffCycles += 2
		}
		if rule.SetMode != "" {
			mode = rule.SetMode
		}
		pos = best
	}
	return toks, pos, mode, stats, nil
}

// oracleSpecs are the fuzz lexer and the five built-in tokenizers.
func oracleSpecs() []lexer.Spec {
	return []lexer.Spec{lexer.ModalSpec(), lang.Cool().LexSpec, lang.DOT().LexSpec,
		lang.JSON().LexSpec, lang.XML().LexSpec, lang.MiniC().LexSpec}
}

type oraclePair struct {
	fast *lexer.Lexer
	ref  *nfaLexer
}

var oracle struct {
	sync.Once
	pairs []oraclePair
	err   error
}

func oraclePairs(t testing.TB) []oraclePair {
	oracle.Do(func() {
		for _, spec := range oracleSpecs() {
			fast, err := lexer.New(spec)
			if err != nil {
				oracle.err = err
				return
			}
			ref, err := newNFALexer(spec)
			if err != nil {
				oracle.err = err
				return
			}
			oracle.pairs = append(oracle.pairs, oraclePair{fast, ref})
		}
	})
	if oracle.err != nil {
		t.Fatal(oracle.err)
	}
	return oracle.pairs
}

// chunkSizes cuts n bytes by the bytes of cuts, low byte first and
// cycling; a zero byte takes the rest of the input, so cuts == 0 is one
// whole chunk.
func chunkSizes(n int, cuts uint64) []int {
	var sizes []int
	for k := 0; n > 0; k++ {
		c := int(cuts >> (8 * (k % 8)) & 0xff)
		if c == 0 || c > n {
			c = n
		}
		sizes = append(sizes, c)
		n -= c
	}
	return sizes
}

// FuzzScanMatchesNFA is the lexer's independent check: the merged-table
// scan must agree with the NFA reference on every call — whole input
// and chunked, through the Token API and the code path — in tokens or
// codes and their starts, consumed bytes, end mode, Stats, and the
// lexer.Error's Pos, Byte and Mode. sel picks the spec (low 3 bits, mod
// 6) and, in its high bits, which rule the bound machine lacks as a
// terminal (0: none). Run `go test -fuzz=FuzzScanMatchesNFA`; seeds run
// on plain `go test`.
func FuzzScanMatchesNFA(f *testing.F) {
	const (
		modal = iota
		cool
		dot
		json
		xml
		minic
	)
	for _, s := range []struct {
		sel  uint8
		data string
		cuts uint64
	}{
		// An XML text run (a self-looping accept state) ends exactly at
		// the chunk boundary: the jump finds no exit byte and holds the
		// lexeme back.
		{xml, "<a>hello world</a>", 14},
		{xml, "<a>hello world</a>", 13},
		// The same run ends at end of input, accepted there.
		{xml, "<a>trailing text", 0},
		{xml, "<a>trailing text", 5},
		// A tag-mode string (a non-accepting self-loop) ends at a chunk
		// boundary, then at end of input unterminated: a lex error at
		// its opening quote.
		{modal, `<a b="xyz">t`, 9},
		{modal, `<a b="open`, 0},
		{modal, `<a b="open`, 6},
		// A Cool line comment runs to end of input.
		{cool, "x <- 1 -- note", 0},
		{cool, "x <- 1 -- note\ny", 0x0b},
		{modal, "if x1 abd abc ab <t k=\"v\">", 0x0301},
		{modal, "x @ y", 0},
		{modal, "x @ y", 0x01},
		{modal | 3<<3, "ab 12 <n>", 0x0302},
		{json, lang.JSONSample, 0},
		{json, lang.JSONSample, 0x0d05_0311_0207_0b01},
		{json | 10<<3, lang.JSONSample, 0x0405},
		{json, `{"a": "b\"c", "d": -1.5e+3}`, 0x0101_0101_0101_0101},
		{xml, lang.XMLSample, 0},
		{xml, lang.XMLSample, 0x1f03_2907_0b11_0502},
		{dot, lang.DOTSample, 0x0709_0a05},
		{cool, lang.CoolSample, 0x2111_0703},
		{minic, lang.MiniCSample, 0x0d0b_0705},
		{minic, lang.MiniCSample, 0},
		// Tunnels: "<" ends in another mode's start, then "a" and ">"
		// switch mode again on the byte that ends them.
		{xml, "<a>", 0},
		{xml, "<a>b</a>", 0x03},
		// A tunnel into a byte no rule of the next mode starts with: "1"
		// accepts, "@" starts nothing, so the lex error is at "@".
		{json, "1@", 0},
		{json, "[1@]", 0x02},
		// Accept, non-accept, dead: "1." and "1e+" back up to "1".
		{json, "1.x", 0},
		{json, "[1e+]", 0},
		{json, "[1e+", 0x03},
		// A chunk ends on the byte that ends a lexeme, and one starts
		// on it.
		{json, "[10,20]", 0x04},
		{json, "[10,20]", 0x0103},
		// A rule that is not a terminal (COMMA, then INT) ends right
		// after a tunnel, whole and held back at a chunk's end.
		{json | 6<<3, "[1,2]", 0},
		{json | 6<<3, "[1,2]", 0x03},
		{json | 11<<3, "[1]", 0},
		{json | 11<<3, "[ 1 ]", 0x02},
	} {
		f.Add(s.sel, []byte(s.data), s.cuts)
	}

	f.Fuzz(matchesNFA)
}

// matchesNFA is FuzzScanMatchesNFA's property for one input.
func matchesNFA(t *testing.T, sel uint8, data []byte, cuts uint64) {
	pairs := oraclePairs(t)
	p := pairs[int(sel&7)%len(pairs)]
	rules := p.ref.spec.Rules
	missing := -1
	if k := int(sel >> 3); k > 0 {
		missing = (k - 1) % len(rules)
	}
	code := func(rule int) (core.Symbol, bool) {
		return core.Symbol(rule + 2), rule != missing
	}
	bound := p.fast.Bind(code)

	// check runs one call of each implementation on input and
	// compares them; it returns the reference's outcome.
	var out lexer.Codes
	check := func(input []byte, mode string, streaming bool) (int, string, error) {
		t.Helper()
		wantToks, wantN, wantMode, wantStats, wantErr := p.ref.scan(input, mode, streaming)
		where := fmt.Sprintf("(input %q, mode %s, streaming %v, sel %d, cuts %#x)", input, mode, streaming, sel, cuts)

		var gotToks []lexer.Token
		var gotN int
		var gotMode string
		var gotStats lexer.Stats
		var gotErr error
		if streaming {
			gotToks, gotN, gotMode, gotStats, gotErr = p.fast.TokenizeChunk(input, mode)
		} else {
			gotToks, gotStats, gotMode, gotErr = p.fast.TokenizeResume(input, mode)
			gotN = wantN // TokenizeResume does not report it
		}
		if !reflect.DeepEqual(gotToks, wantToks) && len(gotToks)+len(wantToks) > 0 {
			t.Fatalf("tokens: got %+v, want %+v %s", gotToks, wantToks, where)
		}
		if gotN != wantN || gotMode != wantMode || gotStats != wantStats {
			t.Fatalf("token API: got consumed %d mode %s stats %+v, want %d %s %+v %s",
				gotN, gotMode, gotStats, wantN, wantMode, wantStats, where)
		}
		sameError(t, "token API", gotErr, wantErr, where)

		m, ok := p.fast.Mode(mode)
		if !ok {
			t.Fatalf("mode %q unknown to the merged table %s", mode, where)
		}
		cN, cMode, cStats, cErr := bound.Scan(&out, input, m, !streaming)
		var wantSyms []core.Symbol
		var wantStarts []int
		wantNT := -1
		for _, tk := range wantToks {
			c, ok := code(tk.Rule)
			if !ok {
				wantNT = tk.Rule
				break
			}
			wantSyms = append(wantSyms, c)
			wantStarts = append(wantStarts, tk.Start)
		}
		if len(out.Syms)+len(wantSyms) > 0 && !reflect.DeepEqual(out.Syms, wantSyms) {
			t.Fatalf("codes: got %v, want %v %s", out.Syms, wantSyms, where)
		}
		if out.NonTerminal != wantNT {
			t.Fatalf("non-terminal rule: got %d, want %d %s", out.NonTerminal, wantNT, where)
		}
		// Scan keeps no offsets: Start recovers each code's, and leaves
		// the codes as Scan wrote them.
		syms := slices.Clone(out.Syms)
		for k, want := range wantStarts {
			if got := bound.Start(&out, input, m, k); got != want {
				t.Fatalf("code %d: Start %d, want %d %s", k, got, want, where)
			}
		}
		if !slices.Equal(out.Syms, syms) {
			t.Fatalf("Start changed the codes: %v, was %v %s", out.Syms, syms, where)
		}
		if cN != wantN || p.fast.ModeName(cMode) != wantMode || cStats != wantStats {
			t.Fatalf("code path: got consumed %d mode %s stats %+v, want %d %s %+v %s",
				cN, p.fast.ModeName(cMode), cStats, wantN, wantMode, wantStats, where)
		}
		sameError(t, "code path", cErr, wantErr, where)
		return wantN, wantMode, wantErr
	}

	// Whole input, then the chunked stream: carry the mode and the
	// unconsumed tail across chunks, flush the tail at the end.
	check(data, lexer.DefaultMode, false)
	mode, tail := lexer.DefaultMode, []byte(nil)
	pos := 0
	for _, n := range chunkSizes(len(data), cuts) {
		tail = append(tail, data[pos:pos+n]...)
		pos += n
		consumed, m, err := check(tail, mode, true)
		if err != nil {
			return
		}
		mode = m
		tail = append(tail[:0], tail[consumed:]...)
	}
	check(tail, mode, false)
}

// Plain `go test` also sweeps seeded random inputs over every spec, cut
// into chunks of 1–8 bytes, drawing bytes from each spec's own sample.
func TestScanMatchesNFARandom(t *testing.T) {
	alphabets := []string{"if ab1+<x>*=\"\t", lang.CoolSample, lang.DOTSample,
		lang.JSONSample, lang.XMLSample, lang.MiniCSample}
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 600; trial++ {
		spec := r.Intn(len(alphabets))
		sel := uint8(spec) | uint8(r.Intn(4))<<3
		data := make([]byte, r.Intn(60))
		for i := range data {
			data[i] = alphabets[spec][r.Intn(len(alphabets[spec]))]
		}
		var cuts uint64
		for k := 0; k < 8; k++ {
			cuts |= uint64(1+r.Intn(8)) << (8 * k)
		}
		matchesNFA(t, sel, data, cuts)
	}
}

func sameError(t *testing.T, path string, got, want error, where string) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s error: got %v, want %v %s", path, got, want, where)
	}
	if want == nil {
		return
	}
	var g, w *lexer.Error
	if !errors.As(got, &g) || !errors.As(want, &w) {
		t.Fatalf("%s error: got %v, want %v (not lexer errors) %s", path, got, want, where)
	}
	if *g != *w || got.Error() != want.Error() {
		t.Fatalf("%s error: got %+v, want %+v %s", path, *g, *w, where)
	}
}
