package engine

import (
	"fmt"

	"aspen/internal/core"
)

// Options configures an Exec. It is the hook-free subset of
// core.ExecOptions: anything needing per-activation observation (hooks,
// fault injection) belongs on the simulator.
type Options struct {
	// StackDepth overrides the program's stack depth (0 = program
	// default).
	StackDepth int
	// EpsilonBudget bounds consecutive ε-activations between two input
	// symbols (0 = the same default formula core uses). Exceeding it
	// returns core.ErrEpsilonLimit.
	EpsilonBudget int
	// CollectReports records each report event in Result.Reports.
	CollectReports bool
}

// Exec is an in-progress run of a Program. Its stepping functions
// mirror core.Execution exactly — same counters, same error classes,
// same error strings — so the two backends are interchangeable behind
// stream.Parser and differential-testable state for state.
type Exec struct {
	p *Program

	cur int32
	// stack holds entries, not raw symbols: the symbol in the low byte,
	// its stack class in the high byte, so dispatch reads the TOS class
	// with a shift.
	stack    []uint16
	depth    int
	pos      int
	res      core.Result
	epsSeq   int
	epsLimit int
	collect  bool
}

// NewExec creates a fresh execution of p positioned at its start state
// with an empty stack (⊥ pre-loaded).
func NewExec(p *Program, opts Options) *Exec {
	depth := opts.StackDepth
	if depth == 0 {
		depth = p.stackDepth
	}
	lim := opts.EpsilonBudget
	if lim == 0 {
		// Same default as core.NewExecution: legitimate ε-cascades are
		// bounded by stack contents plus per-state work.
		lim = 4*(p.numStates+depth) + 64
	}
	e := &Exec{
		p:        p,
		cur:      p.start,
		stack:    make([]uint16, 1, 16),
		depth:    depth,
		epsLimit: lim,
		collect:  opts.CollectReports,
	}
	e.stack[0] = p.entry[core.BottomOfStack]
	e.res.FinalState = core.StateID(p.start)
	return e
}

// Program returns the program this execution runs.
func (e *Exec) Program() *Program { return e.p }

// Reset rewinds the execution to the program's start configuration
// without reallocating (the pooling contract core.Execution.Reset
// documents).
func (e *Exec) Reset() {
	e.cur = e.p.start
	e.stack = e.stack[:1]
	e.stack[0] = e.p.entry[core.BottomOfStack]
	e.pos = 0
	e.epsSeq = 0
	e.res = core.Result{FinalState: core.StateID(e.p.start)}
}

// Pos returns the number of input symbols consumed so far.
func (e *Exec) Pos() int { return e.pos }

// Current returns the active state.
func (e *Exec) Current() core.StateID { return core.StateID(e.cur) }

// TOS returns the current top-of-stack symbol.
func (e *Exec) TOS() core.Symbol { return core.Symbol(e.stack[len(e.stack)-1]) }

// StackLen returns the number of symbols on the stack above ⊥.
func (e *Exec) StackLen() int { return len(e.stack) - 1 }

// activate performs the entry actions of state id, mirroring
// core.Execution.activate field for field (including the exact error
// strings — serve responses embed them, and the two backends must
// answer byte-identically).
func (e *Exec) activate(id int32) error {
	op := e.p.ops[id]
	if n := int(op >> popShift & 0xff); n > 0 {
		if n > len(e.stack)-1 {
			return fmt.Errorf("%w: state %d (%s) pops %d with depth %d",
				core.ErrStackUnderflow, id, e.p.labels[id], n, len(e.stack)-1)
		}
		e.stack = e.stack[:len(e.stack)-n]
	}
	if op&flagPush != 0 {
		if len(e.stack)-1 >= e.depth {
			return fmt.Errorf("%w: state %d (%s) at depth %d",
				core.ErrStackOverflow, id, e.p.labels[id], e.depth)
		}
		e.stack = append(e.stack, uint16(op>>entShift))
	}
	if d := len(e.stack) - 1; d > e.res.MaxStackDepth {
		e.res.MaxStackDepth = d
	}
	e.cur = id
	e.res.FinalState = core.StateID(id)
	e.res.Steps++
	if op&flagEps != 0 {
		e.res.EpsilonStalls++
		e.epsSeq++
	} else {
		e.epsSeq = 0
	}
	if op&flagAccept != 0 {
		e.res.ReportCount++
		if e.collect {
			e.res.Reports = append(e.res.Reports,
				core.Report{Pos: e.pos, State: core.StateID(id), Code: e.p.report[id]})
		}
	}
	return nil
}

// StepEpsilon takes one enabled ε-transition; false when none is
// enabled.
func (e *Exec) StepEpsilon() (bool, error) {
	t := e.p.epsSucc(uint32(e.cur), e.stack[len(e.stack)-1])
	if t == noState {
		return false, nil
	}
	if e.epsSeq >= e.epsLimit {
		return false, fmt.Errorf("%w: state %d after %d ε-steps", core.ErrEpsilonLimit, e.cur, e.epsSeq)
	}
	return true, e.activate(t)
}

// DrainEpsilon takes ε-transitions until none is enabled, returning the
// number taken.
func (e *Exec) DrainEpsilon() (int, error) {
	n := 0
	for {
		t := e.p.epsSucc(uint32(e.cur), e.stack[len(e.stack)-1])
		if t == noState {
			return n, nil
		}
		if e.epsSeq >= e.epsLimit {
			return n, fmt.Errorf("%w: state %d after %d ε-steps", core.ErrEpsilonLimit, e.cur, e.epsSeq)
		}
		if err := e.activate(t); err != nil {
			return n, err
		}
		n++
	}
}

// Feed consumes one input symbol (ε-moves must be drained first). It
// returns false when no successor is enabled: the machine jams.
func (e *Exec) Feed(sym core.Symbol) (bool, error) {
	t := e.p.inputSucc(uint32(e.cur), sym, e.stack[len(e.stack)-1])
	if t == noState {
		return false, nil
	}
	// Count the symbol before activating, exactly as core does: a report
	// (or stack fault) fired by the consuming state sees the
	// post-consumption position.
	e.pos++
	e.res.Consumed = e.pos
	if err := e.activate(t); err != nil {
		return false, err
	}
	return true, nil
}

// FeedAll consumes codes in order — drain ε-moves, feed, per symbol —
// and reports how many were consumed, whether the machine jammed on
// codes[fed], and any machine fault (the faulting symbol stays
// uncounted). It is the fused hot loop stream.Parser runs once per
// chunk: the drain/feed sequence of the stepping functions above with
// the execution state in locals — the stack as an index into its
// buffer, the top entry and the current state's op word beside it —
// written back once per call instead of once per activation. Where the
// current state heads a static ε-tail whose assumed class is on top and
// whose budget, underflow and depth guards hold, the drain takes the
// whole tail in one step; otherwise it steps state by state, so a
// fault is raised by the same activation as on the simulator. A tail
// is taken only inside a drain, never right after the feed that
// reaches its head: the chunk may end there, and the simulator leaves
// the machine in that state until the next symbol. Its observable
// behavior — counters, error classes, error strings, state left
// behind — is exactly that of DrainEpsilon+Feed per symbol; the
// differential suite pins this.
func (e *Exec) FeedAll(codes []core.Symbol) (fed int, jammed bool, err error) {
	if e.collect {
		// Report collection needs the per-activation position, so the
		// rare collecting path takes the plain stepping functions.
		return e.feedSlow(codes)
	}
	p := e.p
	// Shifts are at most 8; the mask lets the compiler drop its
	// shift-width checks from the loop.
	epsShift, inShift := p.epsShift&31, p.inShift&31
	cur := uint32(e.cur)
	op := p.ops[cur]
	// Entries past sp are dead; the buffer grows on demand.
	stack, sp := e.stack[:cap(e.stack)], len(e.stack)-1
	tos := stack[sp]
	epsSeq := e.epsSeq
	stalls := e.res.EpsilonStalls
	maxDepth := e.res.MaxStackDepth
	reports := e.res.ReportCount

	// The position and step count are not kept in the loop, which
	// leaves registers for the two row shifts: each of codes[:fed] was
	// consumed by one completed activation, and a stack fault in the
	// activation consuming codes[fed] still counts that symbol, as core
	// does.
	fed = len(codes)
	faulted := 0
loop:
	for i, c := range codes {
		// Drain ε-moves: the current state's whole tail when the class on
		// top is the one it assumes and no fault can fall inside it, else
		// one activation.
		for {
			if op >= hasTail {
				tl := &p.tails[op>>tailShift]
				if tl.cls == tos>>8 && epsSeq+int(tl.eps) <= e.epsLimit &&
					sp >= int(tl.below) && sp+int(tl.pushAt) < e.depth {
					maxDepth = max(maxDepth, sp+int(tl.reach))
					sp -= int(tl.below)
					if sp+maxTailEnts >= len(stack) {
						stack = grow(stack, sp+maxTailEnts)
					}
					*(*[maxTailEnts]uint16)(stack[sp+1:]) = tl.ents
					sp += int(tl.entLen)
					tos = stack[sp]
					cur = uint32(tl.final)
					op = p.ops[cur]
					stalls += int(tl.eps)
					epsSeq += int(tl.eps)
					reports += int(tl.reports)
					continue
				}
			}
			if op&flagNoEps != 0 {
				break
			}
			t := p.epsNext[cur<<epsShift|uint32(tos>>8)]
			if t == noState {
				break
			}
			if epsSeq >= e.epsLimit {
				fed, err = i, fmt.Errorf("%w: state %d after %d ε-steps", core.ErrEpsilonLimit, cur, epsSeq)
				break loop
			}
			op = p.ops[t]
			if n := int(op >> popShift & 0xff); n > 0 {
				if n > sp {
					fed, err = i, fmt.Errorf("%w: state %d (%s) pops %d with depth %d",
						core.ErrStackUnderflow, t, p.labels[t], n, sp)
					break loop
				}
				sp -= n
				tos = stack[sp]
			}
			if op&flagPush != 0 {
				if sp >= e.depth {
					fed, err = i, fmt.Errorf("%w: state %d (%s) at depth %d",
						core.ErrStackOverflow, t, p.labels[t], e.depth)
					break loop
				}
				sp++
				if sp == len(stack) {
					stack = grow(stack, sp)
				}
				tos = uint16(op >> entShift)
				stack[sp] = tos
			}
			maxDepth = max(maxDepth, sp)
			cur = uint32(t)
			stalls++
			epsSeq++
			reports += int(op >> 1 & 1)
		}
		// Feed c (p.inputSucc, inlined).
		t := noState
		if uint32(c)>>inShift == 0 {
			t = p.inNext[cur<<inShift|uint32(c)]
		}
		cls := uint32(tos >> 8)
		if t < 0 {
			t = p.chainSucc(uint32(^t), cls)
			if t == noState {
				fed, jammed = i, true
				break loop
			}
		}
		op = p.ops[t]
		if op&flagOneClass != 0 {
			if uint32(op>>lblShift&0xff) != cls {
				fed, jammed = i, true
				break loop
			}
		} else if p.classSet[t][cls>>6&3]>>(cls&63)&1 == 0 {
			fed, jammed = i, true
			break loop
		}
		if n := int(op >> popShift & 0xff); n > 0 {
			if n > sp {
				fed, err = i, fmt.Errorf("%w: state %d (%s) pops %d with depth %d",
					core.ErrStackUnderflow, t, p.labels[t], n, sp)
				faulted = 1
				break loop
			}
			sp -= n
			tos = stack[sp]
		}
		if op&flagPush != 0 {
			if sp >= e.depth {
				fed, err = i, fmt.Errorf("%w: state %d (%s) at depth %d",
					core.ErrStackOverflow, t, p.labels[t], e.depth)
				faulted = 1
				break loop
			}
			sp++
			if sp == len(stack) {
				stack = grow(stack, sp)
			}
			tos = uint16(op >> entShift)
			stack[sp] = tos
		}
		maxDepth = max(maxDepth, sp)
		cur = uint32(t)
		epsSeq = 0
		reports += int(op >> 1 & 1)
	}

	pos := e.pos + fed + faulted
	e.res.Steps += stalls - e.res.EpsilonStalls + fed
	e.cur = int32(cur)
	e.stack = stack[:sp+1]
	e.pos = pos
	e.epsSeq = epsSeq
	e.res.EpsilonStalls = stalls
	e.res.MaxStackDepth = maxDepth
	e.res.ReportCount = reports
	e.res.Consumed = pos
	e.res.FinalState = core.StateID(cur)
	return fed, jammed, err
}

// grow returns stack, reallocated if need be, with index top in range
// and its whole capacity in length.
func grow(stack []uint16, top int) []uint16 {
	stack = append(stack, make([]uint16, top+1-len(stack))...)
	return stack[:cap(stack)]
}

// feedSlow is FeedAll through the plain stepping functions, used when
// report collection needs per-activation state.
func (e *Exec) feedSlow(codes []core.Symbol) (fed int, jammed bool, err error) {
	for i, c := range codes {
		if _, err := e.DrainEpsilon(); err != nil {
			return i, false, err
		}
		ok, err := e.Feed(c)
		if err != nil {
			return i, false, err
		}
		if !ok {
			return i, true, nil
		}
	}
	return len(codes), false, nil
}

// InAccept reports whether the active state is an accept state.
func (e *Exec) InAccept() bool { return e.p.ops[e.cur]&flagAccept != 0 }

// Result returns a snapshot of the run statistics so far.
func (e *Exec) Result() core.Result { return e.res }

// Checkpoint copies the execution's resumable state into cp and seals
// it — the same core.Checkpoint the simulator writes, so a session
// checkpointed under one backend restores under the other.
func (e *Exec) Checkpoint(cp *core.Checkpoint) {
	cp.Cur = core.StateID(e.cur)
	cp.Stack = cp.Stack[:0]
	for _, ent := range e.stack {
		cp.Stack = append(cp.Stack, core.Symbol(ent))
	}
	cp.Pos = e.pos
	cp.EpsSeq = e.epsSeq
	reports := append(cp.Res.Reports[:0], e.res.Reports...)
	cp.Res = e.res
	cp.Res.Reports = reports
	cp.Seal()
}

// Restore rewinds the execution to cp after verifying the seal,
// rejecting corrupted snapshots, out-of-range states and empty stacks
// exactly as core.Execution.Restore does. Each raw stack symbol maps to
// its class through the program's entry table, so a restored stack —
// even one holding symbols no state pushes — dispatches exactly as the
// simulator would.
func (e *Exec) Restore(cp *core.Checkpoint) error {
	if err := cp.Check(e.p.numStates); err != nil {
		return err
	}
	e.cur = int32(cp.Cur)
	e.stack = e.stack[:0]
	for _, sym := range cp.Stack {
		e.stack = append(e.stack, e.p.entry[sym])
	}
	e.pos = cp.Pos
	e.epsSeq = cp.EpsSeq
	reports := append(e.res.Reports[:0], cp.Res.Reports...)
	e.res = cp.Res
	e.res.Reports = reports
	return nil
}
