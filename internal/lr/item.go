// Package lr generates LR(1) parsing automata from context-free grammars
// — the role GNU Bison and PLY play in the paper's toolchain (§III-B
// "Parsing Automaton Generation"). Like both tools, it builds LALR(1)
// tables (Bison's default table class) from the LR(0) automaton, not
// the canonical LR(1) one, by propagating lookaheads over it to a
// fixpoint; it can also build the full canonical LR(1) automaton. It
// reports conflicts and provides a table-driven software parser used as
// the correctness oracle for the hDPDA compiler.
package lr

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"

	"aspen/internal/grammar"
)

// Items are grouped by core: an entry is one LR(0) item (production,
// dot) carrying the set of its LR(1) lookaheads as a bitset over symbol
// indices. Cores are numbered densely so that core order is (production,
// dot) order: the augmented start production S' → Start takes cores 0
// and 1, then each production's dot positions follow in production
// order.

// augmentedProd is the pseudo-index of S' → Start.
const augmentedProd int32 = -1

// coreIndex maps each core to its production and dot position.
type coreIndex struct {
	prod []int32
	dot  []int32
}

// itemSet is a set of LR(1) items sorted by core: entry i is core
// cores[i] with lookaheads la[i*w:(i+1)*w], w words per set.
type itemSet struct {
	cores []int32
	la    []uint64
}

func (s *itemSet) Len() int           { return len(s.cores) }
func (s *itemSet) Less(i, j int) bool { return s.cores[i] < s.cores[j] }
func (s *itemSet) Swap(i, j int) {
	s.cores[i], s.cores[j] = s.cores[j], s.cores[i]
	w := len(s.la) / len(s.cores)
	a, b := s.la[i*w:(i+1)*w], s.la[j*w:(j+1)*w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// lookaheads returns the symbols of entry i's lookahead set, ascending.
func (s *itemSet) lookaheads(i int) []grammar.Sym {
	w := len(s.la) / len(s.cores)
	var out []grammar.Sym
	for k, word := range s.la[i*w : (i+1)*w] {
		for ; word != 0; word &= word - 1 {
			out = append(out, grammar.Sym(k*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// union adds src's bits to dst, reporting whether dst grew.
func union(dst, src []uint64) bool {
	grew := false
	for k, w := range src {
		if dst[k]|w != dst[k] {
			dst[k] |= w
			grew = true
		}
	}
	return grew
}

// builder carries the grammar's core numbering and the per-core facts
// closure needs through construction.
type builder struct {
	g *grammar.Grammar
	coreIndex
	words int           // bitset words per lookahead set
	next  []grammar.Sym // per core: the symbol after the dot, NoSym if complete
	first []uint64      // per core: FIRST of the symbols after next (words each)
	empty []bool        // per core: whether the symbols after next derive ε
	alts  [][]int32     // per nonterminal: the dot-0 cores of its productions
	pos   []int32       // closure scratch: core → entry index + 1
}

func newBuilder(g *grammar.Grammar) *builder {
	sets := grammar.Analyze(g)
	w := (len(g.Symbols) + 63) / 64
	b := &builder{g: g, words: w, alts: make([][]int32, len(g.Symbols))}
	symFirst := make([]uint64, len(g.Symbols)*w)
	for s, fs := range sets.First {
		for x := range fs {
			symFirst[s*w+int(x)/64] |= 1 << (uint(x) % 64)
		}
	}
	first := make([]uint64, w)
	addCores := func(p int32, rhs []grammar.Sym) {
		for d := 0; d <= len(rhs); d++ {
			b.prod = append(b.prod, p)
			b.dot = append(b.dot, int32(d))
			clear(first)
			next, empty := grammar.NoSym, true
			if d < len(rhs) {
				next = rhs[d]
				for _, r := range rhs[d+1:] {
					union(first, symFirst[int(r)*w:int(r+1)*w])
					if !sets.Nullable[r] {
						empty = false
						break
					}
				}
			}
			b.next = append(b.next, next)
			b.first = append(b.first, first...)
			b.empty = append(b.empty, empty)
		}
	}
	addCores(augmentedProd, []grammar.Sym{g.Start})
	for i := range g.Productions {
		p := &g.Productions[i]
		b.alts[p.Lhs] = append(b.alts[p.Lhs], int32(len(b.prod)))
		addCores(int32(i), p.Rhs)
	}
	b.pos = make([]int32, len(b.prod))
	return b
}

// closure returns the closure of kernel, sorted by core: for every item
// A → α·Bβ with lookaheads L it adds B → ·γ for every production of B
// with lookaheads FIRST(β), plus L when β derives ε, until no set grows.
// Closure adds only dot-0 items, which no kernel past the start state
// holds, so it is injective on kernels.
func (b *builder) closure(kernel itemSet) itemSet {
	w := b.words
	set := itemSet{cores: slices.Clone(kernel.cores), la: slices.Clone(kernel.la)}
	work := make([]int32, len(set.cores))
	for i, c := range set.cores {
		b.pos[c] = int32(i + 1)
		work[i] = int32(i)
	}
	la := make([]uint64, w)
	for len(work) > 0 {
		i := int(work[len(work)-1])
		work = work[:len(work)-1]
		c := set.cores[i]
		nt := b.next[c]
		if nt == grammar.NoSym || b.g.IsTerminal(nt) {
			continue
		}
		copy(la, b.first[int(c)*w:])
		if b.empty[c] {
			union(la, set.la[i*w:(i+1)*w])
		}
		for _, d := range b.alts[nt] {
			j := int(b.pos[d]) - 1
			if j < 0 {
				j = len(set.cores)
				b.pos[d] = int32(j + 1)
				set.cores = append(set.cores, d)
				set.la = append(set.la, la...)
			} else if !union(set.la[j*w:(j+1)*w], la) {
				continue
			}
			work = append(work, int32(j))
		}
	}
	for _, c := range set.cores {
		b.pos[c] = 0
	}
	sort.Sort(&set)
	return set
}

// successors calls f for every symbol x after a dot in the closed set,
// in symbol order, with the kernel of GOTO(set, x): the items with the
// dot before x, advanced. Advancing preserves core order, so each
// kernel comes out sorted.
func (b *builder) successors(set itemSet, f func(x grammar.Sym, kernel itemSet)) {
	w := b.words
	var syms []grammar.Sym
	for _, c := range set.cores {
		if x := b.next[c]; x != grammar.NoSym {
			syms = append(syms, x)
		}
	}
	slices.Sort(syms)
	for _, x := range slices.Compact(syms) {
		var k itemSet
		for i, c := range set.cores {
			if b.next[c] == x {
				k.cores = append(k.cores, c+1)
				k.la = append(k.la, set.la[i*w:(i+1)*w]...)
			}
		}
		f(x, k)
	}
}

// key serializes a kernel for state lookup: its cores, and with
// withLA its lookaheads too.
func key(k itemSet, withLA bool) string {
	buf := make([]byte, 0, 4*len(k.cores)+8*len(k.la))
	for _, c := range k.cores {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	if withLA {
		for _, w := range k.la {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return string(buf)
}

// state is one automaton state: its kernel, its closure, and its
// outgoing edges in symbol order.
type state struct {
	kernel itemSet
	items  itemSet
	edges  []edge
}

type edge struct {
	sym grammar.Sym
	to  int
}

// automaton enumerates the states reachable from S' → ·Start / ⊣
// breadth-first, each state's successors in symbol order, identifying
// states by kernel: with withLA the result is the canonical LR(1)
// automaton, without it the LR(0) one. A state of the LR(0) automaton
// keeps the lookaheads of the kernel that first reached it. Both
// automata meet each LR(0) core first in the same order, so an LALR
// state has the number of the first canonical state with its core.
func (b *builder) automaton(withLA bool) []*state {
	start := itemSet{cores: []int32{0}, la: make([]uint64, b.words)}
	start.la[0] = 1 << grammar.EndMarker
	states := []*state{{kernel: start, items: b.closure(start)}}
	index := map[string]int{key(start, withLA): 0}
	for si := 0; si < len(states); si++ {
		st := states[si]
		b.successors(st.items, func(x grammar.Sym, k itemSet) {
			kk := key(k, withLA)
			ti, ok := index[kk]
			if !ok {
				ti = len(states)
				index[kk] = ti
				states = append(states, &state{kernel: k, items: b.closure(k)})
			}
			st.edges = append(st.edges, edge{x, ti})
		})
	}
	return states
}

// propagate turns the LR(0) automaton into the LALR(1) one: each
// state's closure passes its items' lookaheads along its edges into the
// successors' kernels, and a successor whose kernel grew is queued to
// be closed again, until nothing grows. Every state starts queued, so
// at the fixpoint each state's last closure is final. The lookaheads
// reached are exactly the unions over canonical LR(1) states of equal
// core.
func (b *builder) propagate(states []*state) {
	queued := make([]bool, len(states))
	work := make([]int, len(states))
	for i := range work {
		work[i], queued[i] = i, true
	}
	for len(work) > 0 {
		st := states[work[0]]
		queued[work[0]] = false
		work = work[1:]
		st.items = b.closure(st.kernel)
		e := 0
		b.successors(st.items, func(_ grammar.Sym, k itemSet) {
			t := st.edges[e].to
			e++
			if union(states[t].kernel.la, k.la) && !queued[t] {
				queued[t] = true
				work = append(work, t)
			}
		})
	}
}
