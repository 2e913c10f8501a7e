package core

import (
	"errors"
	"fmt"
)

// Execution errors. Stack faults correspond to hardware machine faults in
// ASPEN (the stacks are fixed 256-entry structures); the ε-loop error
// guards against non-terminating machines, which a valid compiler never
// produces.
var (
	ErrStackOverflow  = errors.New("core: stack overflow")
	ErrStackUnderflow = errors.New("core: stack underflow (popped ⊥)")
	ErrEpsilonLimit   = errors.New("core: ε-transition limit exceeded (ε-loop?)")
)

// Report is a report event: an accept state was activated after Pos input
// symbols had been consumed.
type Report struct {
	Pos   int     // input symbols consumed when the report fired
	State StateID // reporting state
	Code  int32   // the state's application-defined report code
}

// Result summarizes one run of an hDPDA over an input.
type Result struct {
	// Accepted is true when the whole input was consumed and the machine
	// ended (after draining ε-moves) in an accept state.
	Accepted bool
	// Consumed is the number of input symbols processed before the run
	// ended or jammed.
	Consumed int
	// Jammed is true when no successor was enabled for some input symbol
	// (the DPDA rejects by jamming).
	Jammed bool
	// Reports lists accept-state activations in order (empty unless
	// CollectReports was set).
	Reports []Report
	// EpsilonStalls counts ε-state activations. Each one stalls the
	// input stream for a cycle on ASPEN, so total symbol-processing
	// cycles = Consumed + EpsilonStalls.
	EpsilonStalls int
	// Steps counts all state activations (input-consuming and ε).
	Steps int
	// FinalState is the active state when the run ended.
	FinalState StateID
	// MaxStackDepth is the high-water mark of stack use (excluding ⊥).
	MaxStackDepth int
	// ReportCount counts accept-state activations even when reports are
	// not collected.
	ReportCount int
}

// ExecHooks observes fine-grained execution events for telemetry.
// Every field is optional, and the whole struct hangs off a single
// pointer in ExecOptions: with Hooks nil the stepping functions pay one
// nil check and allocate nothing, so the disabled path stays on the
// hot-loop fast path (enforced by a testing.AllocsPerRun regression
// test). Hook arguments are scalars — invoking them allocates nothing
// either.
type ExecHooks struct {
	// Step fires on every state activation; epsilon marks ε (input
	// stall) cycles, so counting both sides reproduces ASPEN's
	// symbol-cycles + stall-cycles split.
	Step func(id StateID, epsilon bool)
	// StackOp fires on every non-nop stack update with the depth after
	// the update (excluding ⊥).
	StackOp func(op StackOp, depth int)
	// Report fires on accept-state activations (in addition to
	// ExecOptions.OnReport, which predates the hook set).
	Report func(Report)
	// Jam fires when Feed finds no enabled successor: pos is the number
	// of symbols consumed before the offending symbol.
	Jam func(pos int, sym Symbol)
}

// ExecOptions configures an Execution.
type ExecOptions struct {
	// StackDepth overrides the machine's stack depth (0 = machine
	// default, which itself defaults to DefaultStackDepth).
	StackDepth int
	// EpsilonBudget bounds consecutive ε-activations between two input
	// symbols (0 = default of 4×states+16). Exceeding it returns
	// ErrEpsilonLimit.
	EpsilonBudget int
	// CollectReports records each report event in Result.Reports.
	CollectReports bool
	// OnReport, when non-nil, is invoked for every report event
	// (independent of CollectReports).
	OnReport func(Report)
	// Hooks, when non-nil, receives step/stall/stack-op/report/jam
	// events (see ExecHooks).
	Hooks *ExecHooks
	// Faults, when non-nil, is consulted on every state activation and
	// may corrupt the run (see FaultInjector). nil models a perfect
	// fabric and adds one nil check to the step path.
	Faults FaultInjector
}

// Execution is an in-progress run of an hDPDA. The cycle-accurate
// architecture simulator drives the same Execution stepping functions the
// functional Run uses, so functional and simulated semantics are
// identical by construction.
type Execution struct {
	M *HDPDA

	cur      StateID
	stack    []Symbol
	depth    int // max usable entries
	pos      int // input symbols consumed
	res      Result
	opts     ExecOptions
	epsSeq   int // consecutive ε-activations since last input symbol
	epsLimit int
}

// NewExecution creates a fresh execution of m positioned at its start
// state with an empty stack (⊥ pre-loaded).
func NewExecution(m *HDPDA, opts ExecOptions) *Execution {
	depth := opts.StackDepth
	if depth == 0 {
		depth = m.StackDepth
	}
	if depth == 0 {
		depth = DefaultStackDepth
	}
	lim := opts.EpsilonBudget
	if lim == 0 {
		// Legitimate ε-cascades (LR reduction chains) are bounded by the
		// stack contents plus per-state work, so scale the default with
		// both.
		lim = 4*(len(m.States)+depth) + 64
	}
	e := &Execution{
		M:        m,
		cur:      m.Start,
		stack:    make([]Symbol, 1, 16),
		depth:    depth,
		opts:     opts,
		epsLimit: lim,
	}
	e.stack[0] = BottomOfStack
	e.res.FinalState = m.Start
	return e
}

// Reset rewinds the execution to the machine's start configuration —
// start state, empty stack (⊥ pre-loaded), zeroed statistics — without
// reallocating. The stack keeps its grown capacity, so a pooled
// Execution reaches steady state after one run and resets allocation-
// free thereafter; a fresh run over the same input is then
// indistinguishable from a run on a newly constructed Execution.
// Result.Reports is dropped (not truncated) because returned Results
// share its backing array.
func (e *Execution) Reset() {
	e.cur = e.M.Start
	e.stack = e.stack[:1]
	e.stack[0] = BottomOfStack
	e.pos = 0
	e.epsSeq = 0
	e.res = Result{FinalState: e.M.Start}
}

// Pos returns the number of input symbols consumed so far.
func (e *Execution) Pos() int { return e.pos }

// Current returns the active state.
func (e *Execution) Current() StateID { return e.cur }

// TOS returns the current top-of-stack symbol.
func (e *Execution) TOS() Symbol { return e.stack[len(e.stack)-1] }

// StackLen returns the number of symbols on the stack above ⊥.
func (e *Execution) StackLen() int { return len(e.stack) - 1 }

// activate performs the entry actions of state id: stack op, report.
func (e *Execution) activate(id StateID) error {
	st := &e.M.States[id]
	// Pop (possibly multipop) then push, per the stack-update stage.
	if st.Op.Pop > 0 {
		n := int(st.Op.Pop)
		if n > len(e.stack)-1 {
			return fmt.Errorf("%w: state %d (%s) pops %d with depth %d",
				ErrStackUnderflow, id, st.Label, n, len(e.stack)-1)
		}
		e.stack = e.stack[:len(e.stack)-n]
	}
	if st.Op.HasPush {
		if len(e.stack)-1 >= e.depth {
			return fmt.Errorf("%w: state %d (%s) at depth %d",
				ErrStackOverflow, id, st.Label, e.depth)
		}
		e.stack = append(e.stack, st.Op.Push)
	}
	if d := len(e.stack) - 1; d > e.res.MaxStackDepth {
		e.res.MaxStackDepth = d
	}
	e.cur = id
	e.res.FinalState = id
	e.res.Steps++
	if st.Epsilon {
		e.res.EpsilonStalls++
		e.epsSeq++
	} else {
		e.epsSeq = 0
	}
	h := e.opts.Hooks
	if h != nil {
		if h.Step != nil {
			h.Step(id, st.Epsilon)
		}
		if h.StackOp != nil && !st.Op.IsNop() {
			h.StackOp(st.Op, len(e.stack)-1)
		}
	}
	if st.Accept {
		e.res.ReportCount++
		if e.opts.CollectReports || e.opts.OnReport != nil || (h != nil && h.Report != nil) {
			r := Report{Pos: e.pos, State: id, Code: st.Report}
			if e.opts.CollectReports {
				e.res.Reports = append(e.res.Reports, r)
			}
			if e.opts.OnReport != nil {
				e.opts.OnReport(r)
			}
			if h != nil && h.Report != nil {
				h.Report(r)
			}
		}
	}
	if inj := e.opts.Faults; inj != nil {
		if f, ok := inj.Activation(e.res.Steps, e.cur, e.TOS()); ok {
			if err := e.applyFault(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// EpsilonEnabled returns the enabled ε-successor of the current state, or
// InvalidState if none. Determinism guarantees at most one.
func (e *Execution) EpsilonEnabled() StateID {
	tos := e.TOS()
	for _, t := range e.M.States[e.cur].Succ {
		st := &e.M.States[t]
		if st.Epsilon && st.Stack.Contains(tos) {
			return t
		}
	}
	return InvalidState
}

// StepEpsilon takes one enabled ε-transition. It returns false when no
// ε-successor is enabled.
func (e *Execution) StepEpsilon() (bool, error) {
	t := e.EpsilonEnabled()
	if t == InvalidState {
		return false, nil
	}
	if e.epsSeq >= e.epsLimit {
		return false, fmt.Errorf("%w: state %d after %d ε-steps", ErrEpsilonLimit, e.cur, e.epsSeq)
	}
	return true, e.activate(t)
}

// DrainEpsilon takes ε-transitions until none is enabled, returning the
// number taken (= input stall cycles on ASPEN).
func (e *Execution) DrainEpsilon() (int, error) {
	n := 0
	for {
		ok, err := e.StepEpsilon()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// Feed consumes one input symbol. The caller must have drained ε-moves
// first (Run does this). It returns false when no successor is enabled
// (the machine jams and the input is rejected).
func (e *Execution) Feed(sym Symbol) (bool, error) {
	tos := e.TOS()
	for _, t := range e.M.States[e.cur].Succ {
		st := &e.M.States[t]
		if !st.Epsilon && st.Input.Contains(sym) && st.Stack.Contains(tos) {
			// Count the symbol before activating so a report fired by
			// the consuming state itself (ε-merged machines) sees the
			// same position a report from a trailing ε-state would.
			e.pos++
			e.res.Consumed = e.pos
			if err := e.activate(t); err != nil {
				return false, err
			}
			return true, nil
		}
	}
	if h := e.opts.Hooks; h != nil && h.Jam != nil {
		h.Jam(e.pos, sym)
	}
	return false, nil
}

// FeedAll consumes input in order — drain ε-moves, then feed, per
// symbol — and reports how many symbols were consumed, whether the
// machine jammed on input[fed], and any machine fault (the faulting
// symbol stays uncounted). Hooks and faults fire per activation exactly
// as through DrainEpsilon and Feed, which it calls.
func (e *Execution) FeedAll(input []Symbol) (fed int, jammed bool, err error) {
	for i, sym := range input {
		if _, err := e.DrainEpsilon(); err != nil {
			return i, false, err
		}
		ok, err := e.Feed(sym)
		if err != nil {
			return i, false, err
		}
		if !ok {
			return i, true, nil
		}
	}
	return len(input), false, nil
}

// InAccept reports whether the active state is an accept state.
func (e *Execution) InAccept() bool { return e.M.States[e.cur].Accept }

// Result returns a snapshot of the run statistics so far.
func (e *Execution) Result() Result { return e.res }

// Run executes the machine over input: for each symbol, drain ε-moves
// then consume the symbol; after the last symbol, drain trailing ε-moves.
// The input is accepted when it is fully consumed and the machine ends in
// an accept state.
func (m *HDPDA) Run(input []Symbol, opts ExecOptions) (Result, error) {
	e := NewExecution(m, opts)
	_, jammed, err := e.FeedAll(input)
	if err != nil {
		return e.res, err
	}
	if jammed {
		e.res.Jammed = true
		return e.res, nil
	}
	if _, err := e.DrainEpsilon(); err != nil {
		return e.res, err
	}
	e.res.Accepted = e.InAccept()
	return e.res, nil
}

// Accepts is a convenience wrapper returning only the accept decision.
func (m *HDPDA) Accepts(input []Symbol) bool {
	r, err := m.Run(input, ExecOptions{})
	return err == nil && r.Accepted
}

// BytesToSymbols converts raw bytes to input symbols.
func BytesToSymbols(b []byte) []Symbol {
	out := make([]Symbol, len(b))
	for i, c := range b {
		out[i] = Symbol(c)
	}
	return out
}
