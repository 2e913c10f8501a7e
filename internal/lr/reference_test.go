package lr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aspen/internal/grammar"
)

// The reference construction: enumerate the canonical LR(1) automaton
// one item per lookahead, then merge states of equal LR(0) core for
// LALR. It is the textbook definition Build must reproduce byte for
// byte — state numbering, ACTION/GOTO, Resolved order, Describe and
// ConflictError text — because compiled machines, their fingerprints
// and every durable checkpoint depend on that numbering.

type refItem struct {
	prod int32
	dot  int32
	la   grammar.Sym
}

func refItemLess(a, b refItem) bool {
	if a.prod != b.prod {
		return a.prod < b.prod
	}
	if a.dot != b.dot {
		return a.dot < b.dot
	}
	return a.la < b.la
}

// refSet is a sorted, duplicate-free set of items.
type refSet []refItem

func (s refSet) sortInPlace() {
	sort.Slice(s, func(i, j int) bool { return refItemLess(s[i], s[j]) })
}

func (s refSet) key() string {
	buf := make([]byte, 0, len(s)*12)
	for _, it := range s {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it.prod))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it.dot))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it.la))
	}
	return string(buf)
}

func (s refSet) coreKey() string {
	type core struct{ prod, dot int32 }
	seen := map[core]bool{}
	var cores []core
	for _, it := range s {
		if c := (core{it.prod, it.dot}); !seen[c] {
			seen[c] = true
			cores = append(cores, c)
		}
	}
	sort.Slice(cores, func(i, j int) bool {
		if cores[i].prod != cores[j].prod {
			return cores[i].prod < cores[j].prod
		}
		return cores[i].dot < cores[j].dot
	})
	buf := make([]byte, 0, len(cores)*8)
	for _, c := range cores {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.prod))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.dot))
	}
	return string(buf)
}

type refBuilder struct {
	g    *grammar.Grammar
	sets *grammar.Sets
}

func (b *refBuilder) rhs(p int32) []grammar.Sym {
	if p == augmentedProd {
		return []grammar.Sym{b.g.Start}
	}
	return b.g.Productions[p].Rhs
}

// firstOfSeq is FIRST(seq · la).
func (b *refBuilder) firstOfSeq(seq []grammar.Sym, la grammar.Sym) grammar.SymSet {
	out := grammar.SymSet{}
	for _, r := range seq {
		out.AddAll(b.sets.First[r])
		if !b.sets.Nullable[r] {
			return out
		}
	}
	out.Add(la)
	return out
}

// closure adds B → ·γ / x for every item A → α·Bβ / a, every
// production B → γ and every x ∈ FIRST(β·a).
func (b *refBuilder) closure(kernel refSet) refSet {
	seen := map[refItem]bool{}
	var work []refItem
	for _, it := range kernel {
		if !seen[it] {
			seen[it] = true
			work = append(work, it)
		}
	}
	for i := 0; i < len(work); i++ {
		it := work[i]
		r := b.rhs(it.prod)
		if int(it.dot) >= len(r) || b.g.IsTerminal(r[it.dot]) {
			continue
		}
		la := b.firstOfSeq(r[it.dot+1:], it.la)
		for _, pi := range b.g.ProductionsFor(r[it.dot]) {
			for x := range la {
				ni := refItem{prod: int32(pi), dot: 0, la: x}
				if !seen[ni] {
					seen[ni] = true
					work = append(work, ni)
				}
			}
		}
	}
	out := refSet(work)
	out.sortInPlace()
	return out
}

func (b *refBuilder) advance(set refSet, x grammar.Sym) refSet {
	var out refSet
	for _, it := range set {
		r := b.rhs(it.prod)
		if int(it.dot) < len(r) && r[it.dot] == x {
			out = append(out, refItem{prod: it.prod, dot: it.dot + 1, la: it.la})
		}
	}
	out.sortInPlace()
	return out
}

// refTable is the reference construction's output.
type refTable struct {
	actions  []map[grammar.Sym]Action
	gotos    []map[grammar.Sym]int
	resolved []Conflict
	sets     []refSet
}

func referenceBuild(g *grammar.Grammar, opts Options) (*refTable, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	b := &refBuilder{g: g, sets: grammar.Analyze(g)}

	// Canonical LR(1) state machine over closed item sets.
	start := b.closure(refSet{{prod: augmentedProd, dot: 0, la: grammar.EndMarker}})
	states := []refSet{start}
	index := map[string]int{start.key(): 0}
	type refEdge struct {
		from int
		sym  grammar.Sym
		to   int
	}
	var edges []refEdge
	for si := 0; si < len(states); si++ {
		set := states[si]
		symSeen := map[grammar.Sym]bool{}
		var syms []grammar.Sym
		for _, it := range set {
			r := b.rhs(it.prod)
			if int(it.dot) < len(r) && !symSeen[r[it.dot]] {
				symSeen[r[it.dot]] = true
				syms = append(syms, r[it.dot])
			}
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
		for _, x := range syms {
			next := b.closure(b.advance(set, x))
			k := next.key()
			ti, ok := index[k]
			if !ok {
				ti = len(states)
				index[k] = ti
				states = append(states, next)
			}
			edges = append(edges, refEdge{si, x, ti})
		}
	}

	// LALR: merge states with identical LR(0) cores.
	remap := make([]int, len(states))
	merged := states
	if opts.Mode == LALR {
		coreIndex := map[string]int{}
		merged = nil
		for i, set := range states {
			ck := set.coreKey()
			mi, ok := coreIndex[ck]
			if !ok {
				mi = len(merged)
				coreIndex[ck] = mi
				merged = append(merged, nil)
			}
			remap[i] = mi
			merged[mi] = append(merged[mi], set...)
		}
		for i := range merged {
			merged[i].sortInPlace()
			out := merged[i][:0]
			for j, it := range merged[i] {
				if j == 0 || it != merged[i][j-1] {
					out = append(out, it)
				}
			}
			merged[i] = out
		}
	} else {
		for i := range remap {
			remap[i] = i
		}
	}

	t := &refTable{
		actions: make([]map[grammar.Sym]Action, len(merged)),
		gotos:   make([]map[grammar.Sym]int, len(merged)),
		sets:    merged,
	}
	for i := range merged {
		t.actions[i] = map[grammar.Sym]Action{}
		t.gotos[i] = map[grammar.Sym]int{}
	}
	var conflicts []Conflict
	setAction := func(s int, term grammar.Sym, a Action) {
		old, ok := t.actions[s][term]
		if !ok || old == a {
			t.actions[s][term] = a
			return
		}
		if opts.ResolveShiftReduce {
			if old.Kind == ActionShift && a.Kind == ActionReduce {
				t.resolved = append(t.resolved, Conflict{s, term, old, a})
				return
			}
			if old.Kind == ActionReduce && a.Kind == ActionShift {
				t.resolved = append(t.resolved, Conflict{s, term, old, a})
				t.actions[s][term] = a
				return
			}
		}
		conflicts = append(conflicts, Conflict{s, term, old, a})
	}
	for _, e := range edges {
		from, to := remap[e.from], remap[e.to]
		if g.IsTerminal(e.sym) {
			setAction(from, e.sym, Action{Kind: ActionShift, Target: to})
			continue
		}
		if prev, ok := t.gotos[from][e.sym]; ok && prev != to {
			conflicts = append(conflicts, Conflict{from, e.sym,
				Action{ActionShift, prev}, Action{ActionShift, to}})
			continue
		}
		t.gotos[from][e.sym] = to
	}
	for si, set := range merged {
		for _, it := range set {
			if int(it.dot) != len(b.rhs(it.prod)) {
				continue
			}
			if it.prod == augmentedProd {
				setAction(si, grammar.EndMarker, Action{Kind: ActionAccept})
				continue
			}
			setAction(si, it.la, Action{Kind: ActionReduce, Target: int(it.prod)})
		}
	}
	if len(conflicts) > 0 {
		return nil, &ConflictError{Mode: opts.Mode, Conflicts: conflicts, G: g}
	}
	return t, nil
}

func (t *refTable) describe(g *grammar.Grammar, s int) string {
	out := fmt.Sprintf("state %d\n", s)
	for _, it := range t.sets[s] {
		lhs, rhs := "S'", []grammar.Sym{g.Start}
		if it.prod != augmentedProd {
			p := &g.Productions[it.prod]
			lhs, rhs = g.SymName(p.Lhs), p.Rhs
		}
		out += "  " + lhs + " →"
		for i, r := range rhs {
			if int(it.dot) == i {
				out += " ·"
			}
			out += " " + g.SymName(r)
		}
		if int(it.dot) == len(rhs) {
			out += " ·"
		}
		out += " , " + g.SymName(it.la) + "\n"
	}
	return out
}

// matchReference builds g with Build and with the reference and
// returns Build's table (nil on a conflict both report) or the first
// difference.
func matchReference(g *grammar.Grammar, opts Options) (*Table, error) {
	got, gotErr := Build(g, opts)
	want, wantErr := referenceBuild(g, opts)
	if gotErr != nil || wantErr != nil {
		var gce, wce *ConflictError
		switch {
		case gotErr == nil || wantErr == nil:
			return nil, fmt.Errorf("%s %v: Build error %v, reference error %v", g.Name, opts, gotErr, wantErr)
		case gotErr.Error() != wantErr.Error():
			return nil, fmt.Errorf("%s %v: error text\n got  %v\n want %v", g.Name, opts, gotErr, wantErr)
		case errors.As(gotErr, &gce) != errors.As(wantErr, &wce):
			return nil, fmt.Errorf("%s %v: error types %T, %T", g.Name, opts, gotErr, wantErr)
		case gce != nil && !reflect.DeepEqual(gce.Conflicts, wce.Conflicts):
			return nil, fmt.Errorf("%s %v: conflicts\n got  %v\n want %v", g.Name, opts, gce.Conflicts, wce.Conflicts)
		}
		return nil, nil
	}
	if got.NumStates() != len(want.actions) {
		return nil, fmt.Errorf("%s %v: %d states, reference %d", g.Name, opts, got.NumStates(), len(want.actions))
	}
	for s := range want.actions {
		if !reflect.DeepEqual(got.Actions[s], want.actions[s]) {
			return nil, fmt.Errorf("%s %v: state %d ACTION\n got  %v\n want %v", g.Name, opts, s, got.Actions[s], want.actions[s])
		}
		if !reflect.DeepEqual(got.Gotos[s], want.gotos[s]) {
			return nil, fmt.Errorf("%s %v: state %d GOTO\n got  %v\n want %v", g.Name, opts, s, got.Gotos[s], want.gotos[s])
		}
		if d, w := got.Describe(s), want.describe(g, s); d != w {
			return nil, fmt.Errorf("%s %v: Describe(%d)\n got\n%s want\n%s", g.Name, opts, s, d, w)
		}
	}
	if len(got.Resolved) != len(want.resolved) || len(got.Resolved) > 0 && !reflect.DeepEqual(got.Resolved, want.resolved) {
		return nil, fmt.Errorf("%s %v: Resolved\n got  %v\n want %v", g.Name, opts, got.Resolved, want.resolved)
	}
	return got, nil
}

// allOptions are the four table configurations.
var allOptions = []Options{
	{Mode: LALR}, {Mode: LALR, ResolveShiftReduce: true},
	{Mode: CanonicalLR}, {Mode: CanonicalLR, ResolveShiftReduce: true},
}

// grammarFromBytes decodes data into a small grammar, or nil when the
// result fails Validate. Terminals and nonterminals intern in an
// interleaved order data picks, optionally past 64 unused terminals so
// lookahead sets span two bitset words. Exhausted data reads as zeros.
func grammarFromBytes(data []byte) *grammar.Grammar {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	g := grammar.New("fuzz")
	if next(4) == 0 {
		for i := 0; i < 64; i++ {
			g.Terminal(fmt.Sprintf("pad%d", i))
		}
	}
	numTerms, numNTs := 1+next(4), 1+next(4)
	var terms, nts []grammar.Sym
	for len(terms) < numTerms || len(nts) < numNTs {
		if len(nts) == numNTs || len(terms) < numTerms && next(2) == 0 {
			terms = append(terms, g.Terminal(fmt.Sprintf("t%d", len(terms))))
		} else {
			nts = append(nts, g.Nonterminal(fmt.Sprintf("N%d", len(nts))))
		}
	}
	syms := append(append([]grammar.Sym(nil), terms...), nts...)
	for _, lhs := range nts {
		for alts := 1 + next(3); alts > 0; alts-- {
			rhs := make([]grammar.Sym, next(4))
			for j := range rhs {
				rhs[j] = syms[next(len(syms))]
			}
			g.AddProduction(lhs, rhs...)
		}
	}
	g.Start = nts[0]
	if g.Validate() != nil {
		return nil
	}
	return g
}

func TestMatchesReferenceHandGrammars(t *testing.T) {
	grammars := []*grammar.Grammar{
		grammar.ArithGrammar(),
		grammar.MustParse("%token PLUS INT\nE : E PLUS E | INT ;"),
		grammar.MustParse(`
%token a b c d e
S : a E c | a F d | b F c | b E d ;
E : e ;
F : e ;
`),
		grammar.MustParse("%token a\nL : a L | ;"),
		grammar.MustParse(`
%token LB RB COMMA x
V : x | LB Items RB | LB RB ;
Items : V | Items COMMA V ;
`),
	}
	for _, g := range grammars {
		for _, opts := range allOptions {
			if _, err := matchReference(g, opts); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestMatchesReferenceRandom runs a seeded corpus of random grammars
// through every table configuration.
func TestMatchesReferenceRandom(t *testing.T) {
	const want = 5000
	r := rand.New(rand.NewSource(16))
	data := make([]byte, 64)
	built, conflicted := 0, 0
	for n := 0; n < want; {
		r.Read(data)
		g := grammarFromBytes(data)
		if g == nil {
			continue
		}
		n++
		for _, opts := range allOptions {
			tbl, err := matchReference(g, opts)
			if err != nil {
				t.Fatalf("grammar %d:\n%s\n%v", n, g.Print(), err)
			}
			if tbl != nil {
				built++
			} else {
				conflicted++
			}
		}
	}
	t.Logf("%d grammars: %d tables, %d conflict errors", want, built, conflicted)
}

func FuzzLALRMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 2, 0, 1, 3, 1, 2, 2, 1, 0})
	f.Add([]byte{0, 3, 3, 1, 0, 1, 1, 2, 2, 3, 4, 5, 6, 0, 2, 1, 3})
	f.Add([]byte{2, 2, 1, 1, 1, 0, 2, 0, 1, 2, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := grammarFromBytes(data)
		if g == nil {
			return
		}
		for _, opts := range allOptions {
			if _, err := matchReference(g, opts); err != nil {
				t.Fatalf("%s\n%v", g.Print(), err)
			}
		}
	})
}
