// Package engine is the fast-path execution engine: an hDPDA lowered
// into flattened structure-of-arrays transition tables and stepped
// without any of the cycle-accurate simulator's per-cycle bookkeeping.
//
// The simulator (internal/core + internal/arch) exists to reproduce the
// paper's tables: it models ε-stall cycles, bank placement, fault
// injection, and carries an optional hook on every state activation.
// None of that belongs on a serving hot path. The engine keeps the
// machine semantics — byte-identical accept/reject decisions, report
// events, and error classes, pinned by differential tests and a fuzz
// target against core.Execution — and drops everything else:
//
//   - Dispatch is table lookup, not successor-list scan, over rows only
//     as wide as the alphabet the machine uses. The 256 stack symbols
//     fall into classes — two symbols share a class when every state's
//     stack label holds both or neither — and a stack entry carries its
//     symbol's class in its high byte. An ε-move is one load from a
//     [state<<epsShift|class] array. An input move loads a
//     [state<<inShift|code] array, as wide as the largest input code,
//     whose entry is the lone candidate successor, checked against its
//     stack-class set (compiled grammars match one token code per
//     non-ε state, so one candidate per slot is the rule); the rare
//     slot with several candidates heads a short chain of them.
//   - No hooks, no fault injector, no per-cycle accounting beyond the
//     counters core.Result requires. The hot loop touches five parallel
//     arrays indexed by state ID.
//   - Executions are poolable: Reset rewinds one without reallocating,
//     so each pooled serving parser owns one Exec and runs every chunk
//     through a single FeedAll call. Concurrent requests share only the
//     read-only Program.
//
// The simulator remains the ground truth: EXPERIMENTS.md numbers come
// from core/arch, and internal/serve runs it whenever a request needs
// execution hooks (chaos/verify guarding).
package engine

import (
	"fmt"
	"math/bits"

	"aspen/internal/core"
)

// State flag bits, packed so the hot loop reads one byte per
// activation.
const (
	flagEps    uint8 = 1 << 0
	flagAccept uint8 = 1 << 1
	flagPush   uint8 = 1 << 2
)

// noState marks an empty dispatch slot.
const noState int32 = -1

// maxStates bounds the lowered machine so the [state<<shift|column]
// table indexes (shift ≤ 8) stay within int range on 32-bit platforms.
// Real grammars are thousands of states; this is a structural sanity
// bound, not a capacity plan.
const maxStates = 1 << 22

// Program is an hDPDA lowered into flat transition tables. It is
// immutable after Compile and shared by any number of concurrent Execs.
type Program struct {
	name       string
	numStates  int
	stackDepth int
	start      int32

	// Per-state entry actions, indexed by state ID (structure of
	// arrays: the hot loop reads only the columns it needs).
	flags   []uint8
	popCnt  []uint8
	pushEnt []uint16 // the stack entry pushed (see entry)
	report  []int32
	// classSet is the state's stack label as a set of stack classes,
	// consulted when the state is an input-dispatch candidate.
	classSet []core.SymbolSet
	// labels are diagnostics for error paths only (stack faults embed
	// the state label, matching core's error strings byte for byte).
	labels []string

	// entry maps a raw stack symbol to its stack entry: the symbol in
	// the low byte, its class in the high byte.
	entry [256]uint16

	// epsNext is the ε-dispatch table: epsNext[state<<epsShift|class]
	// is the enabled ε-successor, or noState. Exact because an
	// ε-successor discriminates only on TOS, and determinism guarantees
	// at most one per (state, TOS).
	epsShift uint
	epsNext  []int32

	// inNext is the input-dispatch table, indexed
	// [state<<inShift|code]: a lone candidate successor (≥ 0), noState,
	// or ^head of a chain of candidates through candTarget/candNext
	// (slot 0 terminates the chain and is never a head). A candidate
	// fires when its classSet holds the TOS class. Codes at or past
	// 1<<inShift match no state.
	inShift    uint
	inNext     []int32
	candTarget []int32
	candNext   []uint32
}

// Compile lowers m into a Program. The machine is validated first: the
// ε-table construction is only sound for machines that satisfy the
// determinism condition, and a conflicting machine is a compile error
// here, never a silent mis-dispatch later.
func Compile(m *core.HDPDA) (*Program, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	n := len(m.States)
	if n > maxStates {
		return nil, fmt.Errorf("engine: %s: %d states exceeds the %d-state table bound", m.Name, n, maxStates)
	}
	depth := m.StackDepth
	if depth == 0 {
		depth = core.DefaultStackDepth
	}

	// Stack classes over the distinct stack labels, and the widest
	// input code any state reads.
	var labels []core.SymbolSet
	classSets := make(map[core.SymbolSet]core.SymbolSet) // label → its classes
	maxCode := 0
	for i := range m.States {
		st := &m.States[i]
		if _, ok := classSets[st.Stack]; !ok {
			classSets[st.Stack] = core.SymbolSet{}
			labels = append(labels, st.Stack)
		}
		if !st.Epsilon {
			forEachSymbol(st.Input, func(sym uint32) { maxCode = max(maxCode, int(sym)) })
		}
	}
	class, numClasses := stackClasses(labels)
	for _, l := range labels {
		var cs core.SymbolSet
		forEachSymbol(l, func(sym uint32) { cs.Add(core.Symbol(class[sym])) })
		classSets[l] = cs
	}

	epsShift := uint(bits.Len(uint(numClasses - 1)))
	inShift := uint(bits.Len(uint(maxCode)))
	p := &Program{
		name:       m.Name,
		numStates:  n,
		stackDepth: depth,
		start:      int32(m.Start),
		flags:      make([]uint8, n),
		popCnt:     make([]uint8, n),
		pushEnt:    make([]uint16, n),
		report:     make([]int32, n),
		classSet:   make([]core.SymbolSet, n),
		labels:     make([]string, n),
		epsShift:   epsShift,
		epsNext:    make([]int32, n<<epsShift),
		inShift:    inShift,
		inNext:     make([]int32, n<<inShift),
		candTarget: make([]int32, 1), // slot 0 = chain terminator
		candNext:   make([]uint32, 1),
	}
	for sym := range p.entry {
		p.entry[sym] = uint16(sym) | uint16(class[sym])<<8
	}
	for i := range p.epsNext {
		p.epsNext[i] = noState
	}
	for i := range p.inNext {
		p.inNext[i] = noState
	}
	for i := range m.States {
		st := &m.States[i]
		var f uint8
		if st.Epsilon {
			f |= flagEps
		}
		if st.Accept {
			f |= flagAccept
		}
		if st.Op.HasPush {
			f |= flagPush
		}
		p.flags[i] = f
		p.popCnt[i] = st.Op.Pop
		p.pushEnt[i] = p.entry[st.Op.Push]
		p.report[i] = st.Report
		p.classSet[i] = classSets[st.Stack]
		p.labels[i] = st.Label
	}
	for i := range m.States {
		for _, t := range m.States[i].Succ {
			st := &m.States[t]
			if st.Epsilon {
				base := uint32(i) << epsShift
				var conflict error
				forEachSymbol(p.classSet[t], func(c uint32) {
					idx := base | c
					if p.epsNext[idx] != noState && conflict == nil {
						conflict = fmt.Errorf("engine: %s: state %d: ε-successors %d and %d overlap on stack class %d",
							m.Name, i, p.epsNext[idx], t, c)
					}
					p.epsNext[idx] = int32(t)
				})
				if conflict != nil {
					return nil, conflict
				}
				continue
			}
			base := uint32(i) << inShift
			forEachSymbol(st.Input, func(code uint32) {
				p.addCandidate(base|code, int32(t))
			})
		}
	}
	return p, nil
}

// addCandidate records t as an input candidate in dispatch slot idx:
// the lone entry of an empty slot, else a node on the slot's chain
// (a lone entry moves onto a fresh chain first).
func (p *Program) addCandidate(idx uint32, t int32) {
	head := p.inNext[idx]
	if head == noState {
		p.inNext[idx] = t
		return
	}
	if head >= 0 {
		p.candTarget = append(p.candTarget, head)
		p.candNext = append(p.candNext, 0)
		head = ^int32(len(p.candTarget) - 1)
	}
	p.candTarget = append(p.candTarget, t)
	p.candNext = append(p.candNext, uint32(^head))
	p.inNext[idx] = ^int32(len(p.candTarget) - 1)
}

// stackClasses partitions the 256 stack symbols by refinement over
// labels: two symbols share a class when every label holds both or
// neither. Classes are numbered by their smallest member, so ⊥ is
// class 0; n is the class count.
func stackClasses(labels []core.SymbolSet) (class [256]uint8, n int) {
	n = 1
	for _, l := range labels {
		var ids [512]uint16 // (old class, member of l) → new class + 1
		next := 0
		for s := range class {
			k := int(class[s]) << 1
			if l.Contains(core.Symbol(s)) {
				k |= 1
			}
			if ids[k] == 0 {
				next++
				ids[k] = uint16(next)
			}
			class[s] = uint8(ids[k] - 1)
		}
		n = next
	}
	return class, n
}

// forEachSymbol visits every symbol in the set, ascending.
func forEachSymbol(s core.SymbolSet, fn func(sym uint32)) {
	for w := 0; w < len(s); w++ {
		word := s[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(uint32(w*64 + b))
			word &= word - 1
		}
	}
}

// Name returns the source machine's name.
func (p *Program) Name() string { return p.name }

// NumStates returns the lowered state count.
func (p *Program) NumStates() int { return p.numStates }

// StackDepth returns the machine's configured stack depth.
func (p *Program) StackDepth() int { return p.stackDepth }

// TableBytes reports the lowered tables' approximate memory footprint,
// for capacity observability (/v1/grammars).
func (p *Program) TableBytes() int {
	return len(p.flags) + len(p.popCnt) + 2*len(p.pushEnt) +
		4*len(p.report) + 32*len(p.classSet) + 2*len(p.entry) +
		4*len(p.epsNext) + 4*len(p.inNext) +
		4*len(p.candTarget) + 4*len(p.candNext)
}

// epsSucc returns the enabled ε-successor of state cur under the
// top-of-stack entry top, or noState.
func (p *Program) epsSucc(cur uint32, top uint16) int32 {
	return p.epsNext[cur<<p.epsShift|uint32(top>>8)]
}

// inputSucc returns the successor of state cur that consumes code
// under the top-of-stack entry top, or noState when the machine jams.
// Exec.FeedAll inlines it by hand.
func (p *Program) inputSucc(cur uint32, code core.Symbol, top uint16) int32 {
	t := noState
	if uint32(code)>>p.inShift == 0 {
		t = p.inNext[cur<<p.inShift|uint32(code)]
	}
	cls := core.Symbol(top >> 8)
	if t < 0 {
		return p.chainSucc(uint32(^t), cls)
	}
	if !p.classSet[t].Contains(cls) {
		return noState
	}
	return t
}

// chainSucc walks a candidate chain from node (0 = empty) for the
// candidate whose stack label holds class cls.
func (p *Program) chainSucc(node uint32, cls core.Symbol) int32 {
	for ; node != 0; node = p.candNext[node] {
		if t := p.candTarget[node]; p.classSet[t].Contains(cls) {
			return t
		}
	}
	return noState
}

// Run executes the program over input with the same contract as
// core.HDPDA.Run: drain ε-moves before each symbol and after the last,
// accept iff the input is fully consumed and the machine ends in an
// accept state.
func (p *Program) Run(input []core.Symbol, opts Options) (core.Result, error) {
	e := NewExec(p, opts)
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
