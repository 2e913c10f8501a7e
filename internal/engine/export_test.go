package engine

import "aspen/internal/core"

// TailHeads returns the number of states that head a static ε-tail.
func TailHeads(p *Program) int { return len(p.tails) - 1 }

// TailHead reports whether state s heads a static ε-tail, with the
// stack class the tail assumes on top and its ε-activation count.
func TailHead(p *Program, s core.StateID) (cls, eps int, ok bool) {
	op := p.ops[s]
	if op < hasTail {
		return 0, 0, false
	}
	tl := &p.tails[op>>tailShift]
	return int(tl.cls), int(tl.eps), true
}

// SymbolClass returns the stack class of raw symbol sym.
func SymbolClass(p *Program, sym core.Symbol) int { return int(p.entry[sym] >> 8) }
