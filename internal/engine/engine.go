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
//   - Runs of ε-moves that lowering can decide are taken in one step.
//     Where a state's entry action leaves a known class on top (it
//     pushes, or leaves the stack alone under a one-class label),
//     Compile follows the drain's ε-run from it symbolically and records
//     it as a static ε-tail: its final state, counts and stack effect.
//     FeedAll takes a tail whole when the class on top is the one it
//     assumes and no budget, underflow or depth fault could fall inside
//     it, and steps state by state otherwise, so every counter and
//     fault stays the simulator's.
//   - No hooks, no fault injector, no per-cycle accounting beyond the
//     counters core.Result requires. An activation reads one packed op
//     word for its state's entry action.
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
	"math"
	"math/bits"
	"unsafe"

	"aspen/internal/core"
)

// A state's op word packs its entry action, its stack label where the
// label is one class, and its static ε-tail, so an activation reads one
// word: flags in bits 0–7, the pop count in 8–15, the pushed stack
// entry in 16–31, the label's class in 32–39 (with flagOneClass), and
// its tail's index (0 = none) from bit 40. flagNoEps marks a state with
// no ε-successor under any class, where a drain ends without a table
// load.
const (
	flagEps      = 1 << 0
	flagAccept   = 1 << 1
	flagPush     = 1 << 2
	flagNoEps    = 1 << 3
	flagOneClass = 1 << 4

	popShift      = 8
	entShift      = 16
	lblShift      = 32
	tailShift     = 40
	hasTail       = 1 << tailShift
	maxTailLength = 64
	maxTailEnts   = 4
)

// noState marks an empty dispatch slot.
const noState int32 = -1

// noPush is a tail's pushAt when the tail pushes nothing: far enough
// below any height a depth bound leaves that the overflow guard passes.
const noPush = math.MinInt16

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

	// Per-state columns, indexed by state ID (structure of arrays: the
	// hot loop reads only the columns it needs). ops holds the op words
	// described above.
	ops    []uint64
	report []int32
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
	// fires when its stack label holds the TOS class. Codes at or past
	// 1<<inShift match no state.
	inShift    uint
	inNext     []int32
	candTarget []int32
	candNext   []uint32

	// tails are the static ε-tails, indexed by the op word's tail
	// index (tails[0] is unused).
	tails []tail
}

// A tail is the ε-run the drain takes from its head state when the top
// of the stack has the class cls: every state on it leaves a class
// lowering can name, so the whole run is decided before it starts.
// Heights are relative to the head's stack height.
type tail struct {
	final   int32  // the state the run ends in
	cls     uint16 // the stack class it assumes on top at its head
	eps     int16  // ε-activations (≥ 2)
	reports int16  // accept-state activations among them
	below   int16  // head-stack entries popped: the height the run needs
	reach   int16  // highest height reached after an activation
	pushAt  int16  // highest height a push starts from (noPush if none)
	entLen  int16  // entries left on top, ents[:entLen]
	ents    [maxTailEnts]uint16
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
		ops:        make([]uint64, n),
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
		op := flagNoEps | uint64(st.Op.Pop)<<popShift
		if st.Epsilon {
			op |= flagEps
		}
		if st.Accept {
			op |= flagAccept
		}
		if st.Op.HasPush {
			op |= flagPush | uint64(p.entry[st.Op.Push])<<entShift
		}
		p.classSet[i] = classSets[st.Stack]
		if cls, ok := onlyClass(p.classSet[i]); ok {
			op |= flagOneClass | uint64(cls)<<lblShift
		}
		p.ops[i] = op
		p.report[i] = st.Report
		p.labels[i] = st.Label
	}
	for i := range m.States {
		for _, t := range m.States[i].Succ {
			st := &m.States[t]
			if st.Epsilon {
				if !p.classSet[t].IsEmpty() {
					p.ops[i] &^= flagNoEps
				}
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
	p.buildTails()
	return p, nil
}

// buildTails records the static ε-tail of every state whose entry
// action leaves a top-of-stack class lowering can name: the class of
// the entry it pushes, or, for a state that leaves the stack alone,
// the one class its label admits. From there the drain's ε-run is
// followed symbolically — the entries it pushes are known, the head's
// own stack is not — while each state on it leaves a nameable class on
// top. The run ends after a state that pops into the head's stack and
// pushes nothing (the class it exposes is not known), where no
// successor is enabled, before a state already on the run or one that
// would leave more than maxTailEnts entries on top, or at
// maxTailLength, and is kept when it is at least two activations long.
func (p *Program) buildTails() {
	seen := make([]int32, p.numStates) // stamp: head+1 once on its run
	var pushed []uint16
	p.tails = make([]tail, 1)
	for s := range p.ops {
		op := p.ops[s]
		var headCls uint32
		switch {
		case op&flagPush != 0:
			headCls = uint32(op >> (entShift + 8) & 0xff)
		case op>>popShift&0xff == 0 && op&flagOneClass != 0:
			headCls = uint32(op >> lblShift & 0xff)
		default:
			continue
		}
		stamp := int32(s + 1)
		seen[s] = stamp
		pushed = pushed[:0]
		tl := tail{final: int32(s), pushAt: noPush, reach: noPush}
		cur, cls := uint32(s), headCls
		for tl.eps < maxTailLength {
			t := p.epsNext[cur<<p.epsShift|cls]
			if t == noState || seen[t] == stamp {
				break
			}
			top := p.ops[t]
			k, lp := int16(top>>popShift&0xff), int16(len(pushed))
			below, left := tl.below+max(k-lp, 0), max(lp-k, 0)
			if top&flagPush != 0 && left == maxTailEnts {
				break // t would leave more entries on top than a tail holds
			}
			tl.below, pushed = below, pushed[:left]
			if top&flagPush != 0 {
				tl.pushAt = max(tl.pushAt, left-below)
				pushed = append(pushed, uint16(top>>entShift))
			}
			tl.reach = max(tl.reach, int16(len(pushed))-below)
			tl.eps++
			tl.reports += int16(top >> 1 & 1)
			seen[t] = stamp
			cur, tl.final = uint32(t), t
			if len(pushed) == 0 && below > 0 {
				break // t exposed an entry of the head's stack: its class is not known
			}
			if len(pushed) > 0 {
				cls = uint32(pushed[len(pushed)-1] >> 8)
			} else {
				cls = headCls
			}
		}
		if tl.eps < 2 {
			continue
		}
		tl.entLen = int16(copy(tl.ents[:], pushed))
		tl.cls = uint16(headCls)
		p.ops[s] |= uint64(len(p.tails)) << tailShift
		p.tails = append(p.tails, tl)
	}
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

// onlyClass returns the class of a one-class set.
func onlyClass(cs core.SymbolSet) (uint32, bool) {
	if cs.Len() != 1 {
		return 0, false
	}
	for w, word := range cs {
		if word != 0 {
			return uint32(w*64 + bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
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
	return 8*len(p.ops) + 4*len(p.report) + 32*len(p.classSet) +
		2*len(p.entry) + 4*len(p.epsNext) + 4*len(p.inNext) +
		4*len(p.candTarget) + 4*len(p.candNext) +
		int(unsafe.Sizeof(tail{}))*len(p.tails)
}

// admits reports whether state t's stack label holds class cls,
// testing the one word of the set that holds it.
func (p *Program) admits(t int32, cls uint32) bool {
	return p.classSet[t][cls>>6&3]>>(cls&63)&1 != 0
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
	cls := uint32(top >> 8)
	if t < 0 {
		return p.chainSucc(uint32(^t), cls)
	}
	if !p.admits(t, cls) {
		return noState
	}
	return t
}

// chainSucc walks a candidate chain from node (0 = empty) for the
// candidate whose stack label holds class cls.
func (p *Program) chainSucc(node uint32, cls uint32) int32 {
	for ; node != 0; node = p.candNext[node] {
		if t := p.candTarget[node]; p.admits(t, cls) {
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
