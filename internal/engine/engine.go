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
//   - Dispatch is table lookup, not successor-list scan. An ε-move is
//     one load from a dense [state<<8|TOS] array; an input move indexes
//     a dense [state<<8|symbol] array whose entries chain through at
//     most a handful of candidates (one per successor whose input label
//     covers the symbol — almost always exactly one for compiled
//     grammars, where a non-ε state matches a single token code).
//   - No hooks, no fault injector, no per-cycle accounting beyond the
//     counters core.Result requires. The hot loop touches five parallel
//     arrays indexed by state ID.
//   - Executions are poolable: Reset rewinds one without reallocating,
//     so each pooled serving parser owns one Exec and runs every chunk
//     through a single FeedAll call. Concurrent requests share only the
//     read-only Program.
//
// The simulator remains the ground truth: EXPERIMENTS.md numbers come
// from core/arch, and internal/serve falls back to it whenever a
// request needs execution hooks (chaos/verify guarding).
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

// noState marks an empty ε-dispatch slot.
const noState int32 = -1

// maxStates bounds the lowered machine so the [state<<8|symbol] table
// indexes stay within int range on 32-bit platforms. Real grammars are
// thousands of states; this is a structural sanity bound, not a
// capacity plan.
const maxStates = 1 << 22

// Program is an hDPDA lowered into flat transition tables. It is
// immutable after Compile and shared by any number of concurrent Execs.
type Program struct {
	name       string
	numStates  int
	stackDepth int
	start      int32
	fp         uint64 // source machine fingerprint

	// Per-state entry actions, indexed by state ID (structure of
	// arrays: the hot loop reads only the columns it needs).
	flags   []uint8
	popCnt  []uint8
	pushSym []core.Symbol
	report  []int32
	// stackSet is the state's top-of-stack match label, consulted when
	// the state appears as an input-dispatch candidate.
	stackSet []core.SymbolSet
	// labels are diagnostics for error paths only (stack faults embed
	// the state label, matching core's error strings byte for byte).
	labels []string

	// epsNext is the dense ε-dispatch table: epsNext[state<<8|tos] is
	// the enabled ε-successor, or noState. Exact because an ε-successor
	// discriminates only on TOS, and determinism guarantees at most one
	// per (state, TOS).
	epsNext []int32

	// Input dispatch: inHead[state<<8|sym] heads a chain of candidate
	// successors through candNext (0 terminates; slot 0 is a reserved
	// sentinel). A candidate fires when its state's stackSet contains
	// the TOS.
	inHead     []uint32
	candTarget []int32
	candNext   []uint32
}

// Compile lowers m into a Program. The machine is validated first: the
// dense ε-table construction is only sound for machines that satisfy
// the determinism condition, and a conflicting machine is a compile
// error here, never a silent mis-dispatch later.
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
	p := &Program{
		name:       m.Name,
		numStates:  n,
		stackDepth: depth,
		start:      int32(m.Start),
		fp:         m.Fingerprint(),
		flags:      make([]uint8, n),
		popCnt:     make([]uint8, n),
		pushSym:    make([]core.Symbol, n),
		report:     make([]int32, n),
		stackSet:   make([]core.SymbolSet, n),
		labels:     make([]string, n),
		epsNext:    make([]int32, n*256),
		inHead:     make([]uint32, n*256),
		candTarget: make([]int32, 1), // slot 0 = chain terminator
		candNext:   make([]uint32, 1),
	}
	for i := range p.epsNext {
		p.epsNext[i] = noState
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
		p.pushSym[i] = st.Op.Push
		p.report[i] = st.Report
		p.stackSet[i] = st.Stack
		p.labels[i] = st.Label
	}
	for i := range m.States {
		base := uint32(i) << 8
		for _, t := range m.States[i].Succ {
			st := &m.States[t]
			if st.Epsilon {
				var conflict error
				forEachSymbol(st.Stack, func(sym uint32) {
					idx := base | sym
					if p.epsNext[idx] != noState && conflict == nil {
						conflict = fmt.Errorf("engine: %s: state %d: ε-successors %d and %d overlap on TOS %#02x",
							m.Name, i, p.epsNext[idx], t, sym)
					}
					p.epsNext[idx] = int32(t)
				})
				if conflict != nil {
					return nil, conflict
				}
				continue
			}
			node := uint32(len(p.candTarget))
			p.candTarget = append(p.candTarget, int32(t))
			p.candNext = append(p.candNext, 0)
			first := true
			forEachSymbol(st.Input, func(sym uint32) {
				idx := base | sym
				if first {
					p.candNext[node] = p.inHead[idx]
					p.inHead[idx] = node
					first = false
					return
				}
				// The successor's input label covers several symbols:
				// one chain node per symbol (nodes are two words; label
				// sets wider than one symbol are rare in compiled
				// grammars).
				n2 := uint32(len(p.candTarget))
				p.candTarget = append(p.candTarget, int32(t))
				p.candNext = append(p.candNext, p.inHead[idx])
				p.inHead[idx] = n2
			})
		}
	}
	return p, nil
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

// Fingerprint returns the source machine's structural fingerprint, so
// checkpoints taken by an engine Exec interoperate with the simulator's
// (stream-level checkpoints stamp the machine fingerprint).
func (p *Program) Fingerprint() uint64 { return p.fp }

// TableBytes reports the lowered tables' approximate memory footprint,
// for capacity observability (/v1/grammars).
func (p *Program) TableBytes() int {
	return len(p.flags) + len(p.popCnt) + len(p.pushSym) +
		4*len(p.report) + 32*len(p.stackSet) +
		4*len(p.epsNext) + 4*len(p.inHead) +
		4*len(p.candTarget) + 4*len(p.candNext)
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
