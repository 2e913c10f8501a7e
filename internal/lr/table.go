package lr

import (
	"fmt"
	"strings"

	"aspen/internal/grammar"
)

// ActionKind classifies a parse action.
type ActionKind uint8

const (
	// ActionError marks an empty table cell (syntax error).
	ActionError ActionKind = iota
	// ActionShift consumes the terminal and pushes Target (a state).
	ActionShift
	// ActionReduce applies production Target.
	ActionReduce
	// ActionAccept accepts the input.
	ActionAccept
)

func (k ActionKind) String() string {
	switch k {
	case ActionShift:
		return "shift"
	case ActionReduce:
		return "reduce"
	case ActionAccept:
		return "accept"
	default:
		return "error"
	}
}

// Action is one ACTION-table cell.
type Action struct {
	Kind   ActionKind
	Target int // state for shift, production index for reduce
}

// Mode selects the table class.
type Mode int

const (
	// LALR is the LR(0) automaton with LR(1) lookaheads propagated
	// over it — the canonical LR(1) automaton with states of equal LR(0)
	// core merged, in fewer steps. Bison's default table class.
	LALR Mode = iota
	// CanonicalLR keeps the full canonical LR(1) automaton.
	CanonicalLR
)

func (m Mode) String() string {
	if m == CanonicalLR {
		return "LR(1)"
	}
	return "LALR(1)"
}

// Conflict describes a table conflict.
type Conflict struct {
	State    int
	Terminal grammar.Sym
	Existing Action
	Proposed Action
}

// Options configures table construction.
type Options struct {
	Mode Mode
	// ResolveShiftReduce, when set, resolves shift/reduce conflicts in
	// favor of shift (yacc's default) instead of failing.
	ResolveShiftReduce bool
}

// Table is the parsing automaton (the paper's "DK" machine): ACTION and
// GOTO functions over the automaton's states, plus per-state diagnostics.
type Table struct {
	G    *grammar.Grammar
	Mode Mode
	// Actions[s][t] is the action in state s on terminal t.
	Actions []map[grammar.Sym]Action
	// Gotos[s][nt] is the state entered after reducing to nt in state s.
	Gotos []map[grammar.Sym]int
	// Resolved lists shift/reduce conflicts resolved in favor of shift
	// (empty unless Options.ResolveShiftReduce).
	Resolved []Conflict
	// items holds each state's closed item set, and coreIndex its
	// cores' productions and dots, for Describe.
	items []itemSet
	coreIndex
}

// NumStates returns the number of parsing-automaton states (paper
// Table III, "Parsing Aut. States").
func (t *Table) NumStates() int { return len(t.Actions) }

// ConflictError aggregates construction conflicts.
type ConflictError struct {
	Mode      Mode
	Conflicts []Conflict
	G         *grammar.Grammar
}

func (e *ConflictError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lr: grammar %q is not %s: %d conflicts", e.G.Name, e.Mode, len(e.Conflicts))
	for i, c := range e.Conflicts {
		if i == 4 {
			fmt.Fprintf(&b, "; … (%d more)", len(e.Conflicts)-i)
			break
		}
		fmt.Fprintf(&b, "; state %d on %q: %s/%s",
			c.State, e.G.SymName(c.Terminal), c.Existing.Kind, c.Proposed.Kind)
	}
	return b.String()
}

// Build constructs the parsing automaton for g.
func Build(g *grammar.Grammar, opts Options) (*Table, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	b := newBuilder(g)
	states := b.automaton(opts.Mode == CanonicalLR)
	if opts.Mode == LALR {
		b.propagate(states)
	}

	t := &Table{
		G:         g,
		Mode:      opts.Mode,
		Actions:   make([]map[grammar.Sym]Action, len(states)),
		Gotos:     make([]map[grammar.Sym]int, len(states)),
		items:     make([]itemSet, len(states)),
		coreIndex: b.coreIndex,
	}
	for i, st := range states {
		t.Actions[i] = map[grammar.Sym]Action{}
		t.Gotos[i] = map[grammar.Sym]int{}
		t.items[i] = st.items
	}

	var conflicts []Conflict
	setAction := func(s int, term grammar.Sym, a Action) {
		old, ok := t.Actions[s][term]
		if !ok || old == a {
			t.Actions[s][term] = a
			return
		}
		// Conflict. Optionally resolve shift/reduce in favor of shift.
		if opts.ResolveShiftReduce {
			if old.Kind == ActionShift && a.Kind == ActionReduce {
				t.Resolved = append(t.Resolved, Conflict{s, term, old, a})
				return
			}
			if old.Kind == ActionReduce && a.Kind == ActionShift {
				t.Resolved = append(t.Resolved, Conflict{s, term, old, a})
				t.Actions[s][term] = a
				return
			}
		}
		conflicts = append(conflicts, Conflict{s, term, old, a})
	}

	// Shift and goto entries from edges.
	for s, st := range states {
		for _, e := range st.edges {
			if g.IsTerminal(e.sym) {
				setAction(s, e.sym, Action{Kind: ActionShift, Target: e.to})
			} else {
				t.Gotos[s][e.sym] = e.to
			}
		}
	}
	// Reduce and accept entries from completed items.
	for s, st := range states {
		for i, c := range st.items.cores {
			if b.next[c] != grammar.NoSym {
				continue
			}
			for _, la := range st.items.lookaheads(i) {
				if b.prod[c] == augmentedProd {
					setAction(s, grammar.EndMarker, Action{Kind: ActionAccept})
					continue
				}
				setAction(s, la, Action{Kind: ActionReduce, Target: int(b.prod[c])})
			}
		}
	}
	if len(conflicts) > 0 {
		return nil, &ConflictError{Mode: opts.Mode, Conflicts: conflicts, G: g}
	}
	return t, nil
}

// Describe renders state s for diagnostics: its items and actions.
func (t *Table) Describe(s int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state %d\n", s)
	set := &t.items[s]
	for i, c := range set.cores {
		var lhs string
		var rhs []grammar.Sym
		if t.prod[c] == augmentedProd {
			lhs = "S'"
			rhs = []grammar.Sym{t.G.Start}
		} else {
			p := &t.G.Productions[t.prod[c]]
			lhs = t.G.SymName(p.Lhs)
			rhs = p.Rhs
		}
		var item strings.Builder
		fmt.Fprintf(&item, "  %s →", lhs)
		for i, r := range rhs {
			if int(t.dot[c]) == i {
				item.WriteString(" ·")
			}
			item.WriteString(" " + t.G.SymName(r))
		}
		if int(t.dot[c]) == len(rhs) {
			item.WriteString(" ·")
		}
		for _, la := range set.lookaheads(i) {
			fmt.Fprintf(&b, "%s , %s\n", item.String(), t.G.SymName(la))
		}
	}
	return b.String()
}
