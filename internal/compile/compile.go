package compile

import (
	"fmt"
	"sort"
	"time"

	"aspen/internal/core"
	"aspen/internal/grammar"
	"aspen/internal/lr"
)

// ReportAccept is the report code of the final accept state; reduce
// states report their production index.
const ReportAccept int32 = -1

// Options selects the table class and the optimization set (paper
// Table IV: "None" vs "Multipop + Eps").
type Options struct {
	// Mode is the parsing-automaton class (default LALR, Bison's
	// default).
	Mode lr.Mode
	// ResolveShiftReduce forwards to the LR generator.
	ResolveShiftReduce bool
	// EpsilonMerge enables the ε-merging pass (paper Fig. 5a).
	EpsilonMerge bool
	// Multipop allows merged states to pop more than one symbol per
	// cycle (paper Fig. 5b). Requires hardware multipop support.
	Multipop bool
}

// OptAll enables both optimizations (the paper's ASPEN-MP
// configuration).
var OptAll = Options{EpsilonMerge: true, Multipop: true}

// OptEpsilonOnly enables only ε-merging (the paper's ASPEN
// configuration in Fig. 8).
var OptEpsilonOnly = Options{EpsilonMerge: true}

// OptNone disables all optimizations (Table IV's "None").
var OptNone = Options{}

// Stats records compilation metrics, the quantities of paper
// Tables III and IV.
type Stats struct {
	TokenTypes    int // Table III "Token Types"
	Productions   int // Table III "Grammar Productions"
	ParsingStates int // Table III "Parsing Aut. States"

	StatesRaw     int // hDPDA states before optimization
	EpsStatesRaw  int // ε-states before optimization
	States        int // Table IV "hDPDA States" after optimization
	EpsStates     int // Table IV "Epsilon States" after optimization
	MergedStates  int // states eliminated by ε-merging/multipop
	RemovedStates int // unreachable states eliminated
	CompileTime   time.Duration
}

// Compiled bundles the generated machine with its table, token map and
// stats.
type Compiled struct {
	Grammar *grammar.Grammar
	Table   *lr.Table
	Tokens  *TokenMap
	Machine *core.HDPDA
	Stats   Stats

	// eng caches the fast-path lowering (see engine.go / Engine), fp
	// the machine's fingerprint (Fingerprint).
	eng engineCache
	fp  fingerprintCache
}

// FromGrammar compiles g to an hDPDA.
func FromGrammar(g *grammar.Grammar, opts Options) (*Compiled, error) {
	start := time.Now()
	tbl, err := lr.Build(g, lr.Options{Mode: opts.Mode, ResolveShiftReduce: opts.ResolveShiftReduce})
	if err != nil {
		return nil, err
	}
	return FromTable(tbl, opts, start)
}

// FromTable compiles an already-built parsing automaton to an hDPDA.
// startedAt, when non-zero, anchors Stats.CompileTime to include table
// construction.
func FromTable(tbl *lr.Table, opts Options, startedAt time.Time) (*Compiled, error) {
	if startedAt.IsZero() {
		startedAt = time.Now()
	}
	g := tbl.G
	tm, err := NewTokenMap(g)
	if err != nil {
		return nil, err
	}
	if tbl.NumStates() > 256 {
		return nil, &StateLimitError{Grammar: g.Name, States: tbl.NumStates()}
	}

	c := &constructor{g: g, tbl: tbl, tm: tm,
		m:       &core.HDPDA{Name: g.Name},
		lookIdx: map[stateTerm]core.StateID{},
		actIdx:  map[stateTerm]core.StateID{},
		gotoIdx: map[gotoKey]core.StateID{},
	}
	c.build()

	m := c.m
	stats := Stats{
		TokenTypes:    g.NumTokenTypes(),
		Productions:   len(g.Productions),
		ParsingStates: tbl.NumStates(),
	}
	stats.RemovedStates = m.RemoveUnreachable()
	stats.StatesRaw = m.NumStates()
	stats.EpsStatesRaw = m.EpsilonStates()

	if opts.EpsilonMerge || opts.Multipop {
		optimize(m, opts)
		stats.MergedStates = m.RemoveUnreachable()
	}
	stats.States = m.NumStates()
	stats.EpsStates = m.EpsilonStates()
	stats.CompileTime = time.Since(startedAt)

	m.InputAlphabet = tm.Alphabet()
	m.StackAlphabet = core.SymbolRange(0, core.Symbol(tbl.NumStates()-1)) // state encodings (⊥ = state 0)
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compile: generated machine invalid: %w", err)
	}
	return &Compiled{Grammar: g, Table: tbl, Tokens: tm, Machine: m, Stats: stats}, nil
}

// StateLimitError reports a parsing automaton with more states than
// the 8-bit stack symbol encoding can name.
type StateLimitError struct {
	Grammar string
	States  int
}

func (e *StateLimitError) Error() string {
	return fmt.Sprintf("compile: parsing automaton for %q has %d states; the 8-bit stack symbol encoding allows 256", e.Grammar, e.States)
}

// encState maps parsing-automaton state s to its stack symbol. State 0 is
// encoded as ⊥ itself: the LR stack conceptually always holds state 0 at
// the bottom, and state 0 is never a shift or goto target (its kernel is
// the dotless start item), so it is never pushed — exactly the invariant
// Validate enforces for ⊥.
func encState(s int) core.Symbol { return core.Symbol(s) }

type stateTerm struct {
	state int
	term  grammar.Sym
}

type gotoKey struct {
	lhs  grammar.Sym
	term grammar.Sym // pending lookahead after the reduction
	u    int         // exposed parsing-automaton state
}

type constructor struct {
	g   *grammar.Grammar
	tbl *lr.Table
	tm  *TokenMap
	m   *core.HDPDA

	lookIdx map[stateTerm]core.StateID
	actIdx  map[stateTerm]core.StateID
	gotoIdx map[gotoKey]core.StateID
}

// sortedTerms returns the ACTION row's terminals in symbol order.
// State IDs are assigned in iteration order, and the machine must come
// out identical on every compile: durable checkpoints carry raw state
// IDs across process restarts, so a map-order walk here would make a
// recompiled machine silently incompatible with its own snapshots.
func sortedTerms(row map[grammar.Sym]lr.Action) []grammar.Sym {
	terms := make([]grammar.Sym, 0, len(row))
	for term := range row {
		terms = append(terms, term)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	return terms
}

// build emits the unoptimized machine: per (state, terminal) a lookahead
// state and an action entry state, per reduction a pop chain, and per
// (lhs, lookahead, exposed state) a goto state.
func (c *constructor) build() {
	m := c.m
	g := c.g

	// Pass 1: lookahead and action-entry states for every defined ACTION
	// cell.
	for s := 0; s < c.tbl.NumStates(); s++ {
		for _, term := range sortedTerms(c.tbl.Actions[s]) {
			key := stateTerm{s, term}
			code, _ := c.tm.Code(term)
			c.lookIdx[key] = m.AddState(core.State{
				Label: fmt.Sprintf("s%d:look(%s)", s, g.SymName(term)),
				Input: core.NewSymbolSet(code),
				Stack: core.NewSymbolSet(encState(s)),
			})
			c.actIdx[key] = m.AddState(core.State{
				Label:   fmt.Sprintf("s%d:act(%s)", s, g.SymName(term)),
				Epsilon: true,
				Stack:   core.NewSymbolSet(encState(s)),
			})
		}
	}

	// Synthetic start: the empty stack (TOS = ⊥) already encodes
	// parsing-automaton state 0, so the start state performs no action.
	startID := m.AddState(core.State{
		Label:   "start",
		Epsilon: true,
		Stack:   core.AllSymbols(),
	})
	m.Start = startID
	c.connectDispatch(startID, 0)

	// Pass 2: wire each action.
	for s := 0; s < c.tbl.NumStates(); s++ {
		for _, term := range sortedTerms(c.tbl.Actions[s]) {
			a := c.tbl.Actions[s][term]
			key := stateTerm{s, term}
			look, act := c.lookIdx[key], c.actIdx[key]
			m.AddEdge(look, act)
			switch a.Kind {
			case lr.ActionShift:
				t := a.Target
				st := m.State(act)
				st.Op = core.StackOp{Push: encState(t), HasPush: true}
				st.Label = fmt.Sprintf("s%d:shift(%s)→s%d", s, g.SymName(term), t)
				c.connectDispatch(act, t)
			case lr.ActionAccept:
				st := m.State(act)
				st.Accept = true
				st.Report = ReportAccept
				st.Label = fmt.Sprintf("s%d:accept", s)
			case lr.ActionReduce:
				c.buildReduce(s, term, a.Target, act)
			}
		}
	}
}

// connectDispatch connects from to the lookahead states of
// parsing-automaton state t (the "read next token" fan-out).
func (c *constructor) connectDispatch(from core.StateID, t int) {
	for _, term := range sortedTerms(c.tbl.Actions[t]) {
		c.m.AddEdge(from, c.lookIdx[stateTerm{t, term}])
	}
}

// buildReduce emits the pop chain and goto dispatch for reduce p entered
// at act with pending lookahead term.
func (c *constructor) buildReduce(s int, term grammar.Sym, p int, act core.StateID) {
	m := c.m
	g := c.g
	prod := &g.Productions[p]
	n := len(prod.Rhs)
	m.State(act).Label = fmt.Sprintf("s%d:reduce(%s,%d)", s, g.SymName(term), p)

	// Pop chain: n ε-states each popping one symbol; the last reports
	// the production. A zero-length production reports on the entry
	// state itself.
	tail := act
	if n == 0 {
		st := m.State(act)
		st.Accept = true
		st.Report = int32(p)
	}
	for i := 0; i < n; i++ {
		st := core.State{
			Label:   fmt.Sprintf("s%d:r%d:pop%d/%d", s, p, i+1, n),
			Epsilon: true,
			Stack:   core.AllSymbols(),
			Op:      core.StackOp{Pop: 1},
		}
		if i == n-1 {
			st.Accept = true
			st.Report = int32(p)
		}
		id := m.AddState(st)
		m.AddEdge(tail, id)
		tail = id
	}

	// Goto dispatch: one ε-state per exposed parsing-automaton state u
	// with GOTO[u, lhs] defined; it pushes the goto target and chains to
	// that state's action entry for the pending lookahead.
	for u := 0; u < c.tbl.NumStates(); u++ {
		v, ok := c.tbl.Gotos[u][prod.Lhs]
		if !ok {
			continue
		}
		// The re-dispatched action must exist for the pending lookahead;
		// if not, this path is a syntax error and the machine jams one
		// step later (no Act state to chain to).
		gk := gotoKey{prod.Lhs, term, u}
		gid, seen := c.gotoIdx[gk]
		if !seen {
			gid = m.AddState(core.State{
				Label:   fmt.Sprintf("goto(%s,%s):s%d→s%d", g.SymName(prod.Lhs), g.SymName(term), u, v),
				Epsilon: true,
				Stack:   core.NewSymbolSet(encState(u)),
				Op:      core.StackOp{Push: encState(v), HasPush: true},
			})
			c.gotoIdx[gk] = gid
			if next, ok := c.actIdx[stateTerm{v, term}]; ok {
				m.AddEdge(gid, next)
			}
		}
		m.AddEdge(tail, gid)
	}
}

// ParseTokens runs the compiled machine over a terminal stream (⊣
// appended automatically) and returns the hDPDA result.
func (cm *Compiled) ParseTokens(tokens []grammar.Sym, opts core.ExecOptions) (core.Result, error) {
	in, err := cm.Tokens.Encode(tokens, true)
	if err != nil {
		return core.Result{}, err
	}
	return cm.Machine.Run(in, opts)
}

// Reductions extracts the production indices from a result's report
// stream, dropping the accept report — directly comparable to
// lr.ParseResult.Reductions.
func Reductions(res core.Result) []int {
	var out []int
	for _, r := range res.Reports {
		if r.Code >= 0 {
			out = append(out, int(r.Code))
		}
	}
	return out
}
