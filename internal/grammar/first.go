package grammar

// Sets holds the classic grammar analyses: nullability and FIRST sets for
// every symbol, plus FOLLOW sets for nonterminals. The LR(1) generator
// derives item lookaheads from FIRST and nullability.
type Sets struct {
	g        *Grammar
	Nullable []bool
	First    []SymSet
	Follow   []SymSet
}

// SymSet is a set of grammar symbols (terminal indices).
type SymSet map[Sym]struct{}

// Add inserts s, reporting whether it was new.
func (ss SymSet) Add(s Sym) bool {
	if _, ok := ss[s]; ok {
		return false
	}
	ss[s] = struct{}{}
	return true
}

// Has reports membership.
func (ss SymSet) Has(s Sym) bool { _, ok := ss[s]; return ok }

// AddAll inserts every member of other, reporting whether any was new.
func (ss SymSet) AddAll(other SymSet) bool {
	changed := false
	for s := range other {
		if ss.Add(s) {
			changed = true
		}
	}
	return changed
}

// Sorted returns the members in ascending order.
func (ss SymSet) Sorted() []Sym {
	out := make([]Sym, 0, len(ss))
	for s := range ss {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Analyze computes nullability, FIRST, and FOLLOW for g by fixpoint
// iteration.
func Analyze(g *Grammar) *Sets {
	n := len(g.Symbols)
	s := &Sets{
		g:        g,
		Nullable: make([]bool, n),
		First:    make([]SymSet, n),
		Follow:   make([]SymSet, n),
	}
	for i := 0; i < n; i++ {
		s.First[i] = SymSet{}
		s.Follow[i] = SymSet{}
		if g.Symbols[i].Terminal {
			s.First[i].Add(Sym(i))
		}
	}
	// Nullable and FIRST fixpoint.
	for changed := true; changed; {
		changed = false
		for pi := range g.Productions {
			p := &g.Productions[pi]
			allNullable := true
			for _, r := range p.Rhs {
				if s.First[p.Lhs].AddAll(s.First[r]) {
					changed = true
				}
				if !s.Nullable[r] {
					allNullable = false
					break
				}
			}
			if allNullable && !s.Nullable[p.Lhs] {
				s.Nullable[p.Lhs] = true
				changed = true
			}
		}
	}
	// FOLLOW fixpoint. Start gets the endmarker.
	s.Follow[g.Start].Add(EndMarker)
	for changed := true; changed; {
		changed = false
		for pi := range g.Productions {
			p := &g.Productions[pi]
			for i, r := range p.Rhs {
				if g.IsTerminal(r) {
					continue
				}
				nullableSuffix := true
				for _, after := range p.Rhs[i+1:] {
					if s.Follow[r].AddAll(s.First[after]) {
						changed = true
					}
					if !s.Nullable[after] {
						nullableSuffix = false
						break
					}
				}
				if nullableSuffix {
					if s.Follow[r].AddAll(s.Follow[p.Lhs]) {
						changed = true
					}
				}
			}
		}
	}
	return s
}
