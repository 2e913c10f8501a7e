package engine_test

// Restore differential: the engine dispatches on stack classes and
// rows only as wide as the machine's input alphabet, so the machine
// level is compared here on what a parse never produces — restored
// stacks holding symbols that are in no stack label, in only some, or
// never pushed, and codes at or past the input-row width — on a
// machine whose input dispatch runs a candidate chain, the palindrome
// machine, and the five built-in grammars.

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/engine"
	"aspen/internal/lang"
)

// Stack symbols of twoCandHDPDA.
const (
	tcX core.Symbol = 1 // pushed on 'x'
	tcY core.Symbol = 2 // pushed on 'y'
)

// twoCandHDPDA builds a machine whose two 'a'-consuming states differ
// only in stack label ({1,3} and {2,5}), so every state's 'a' slot holds
// two candidates. Its labels leave symbols 3–9 never pushed, 3–9 in
// only some labels and 10–255 in none; symbol 9 enables an ε-pop.
func twoCandHDPDA() *core.HDPDA {
	m := &core.HDPDA{Name: "two-candidates", StackDepth: 6}
	start := m.AddState(core.State{Label: "start", Epsilon: true, Stack: core.NewSymbolSet(core.BottomOfStack)})
	m.Start = start
	succ := []core.StateID{
		m.AddState(core.State{Label: "x/pushX", Input: core.NewSymbolSet('x'),
			Stack: core.SymbolRange(0, 3), Op: core.StackOp{Push: tcX, HasPush: true}}),
		m.AddState(core.State{Label: "y/pushY", Input: core.NewSymbolSet('y'),
			Stack: core.SymbolRange(0, 8), Op: core.StackOp{Push: tcY, HasPush: true}}),
		m.AddState(core.State{Label: "a/popX", Input: core.NewSymbolSet('a'),
			Stack: core.NewSymbolSet(tcX, 3), Op: core.StackOp{Pop: 1}, Accept: true, Report: 1}),
		m.AddState(core.State{Label: "a/popY", Input: core.NewSymbolSet('a'),
			Stack: core.NewSymbolSet(tcY, 5), Op: core.StackOp{Pop: 1}, Accept: true, Report: 2}),
		m.AddState(core.State{Label: "e/end", Input: core.NewSymbolSet('e'),
			Stack: core.NewSymbolSet(core.BottomOfStack), Accept: true, Report: 7}),
		m.AddState(core.State{Label: "ε9/pop", Epsilon: true,
			Stack: core.NewSymbolSet(9), Op: core.StackOp{Pop: 1}}),
	}
	for i := range m.States {
		for _, t := range succ {
			m.AddEdge(core.StateID(i), t)
		}
	}
	return m
}

// symbolPools sorts the 256 stack symbols by how m uses them, and
// collects the codes m reads and the first code past its widest one.
type symbolPools struct {
	pushed, noLabel, someLabels, neverPushed []core.Symbol
	codes                                    []core.Symbol
	pastWidth                                int
}

func poolsOf(m *core.HDPDA) symbolPools {
	var union, inAll, pushed, input core.SymbolSet
	inAll = core.AllSymbols()
	for i := range m.States {
		st := &m.States[i]
		union = union.Union(st.Stack)
		inAll = inAll.Intersect(st.Stack)
		if st.Op.HasPush {
			pushed.Add(st.Op.Push)
		}
		if !st.Epsilon {
			input = input.Union(st.Input)
		}
	}
	var p symbolPools
	for s := 0; s < 256; s++ {
		sym := core.Symbol(s)
		switch {
		case pushed.Contains(sym):
			p.pushed = append(p.pushed, sym)
		case sym != core.BottomOfStack:
			p.neverPushed = append(p.neverPushed, sym)
		}
		if !union.Contains(sym) {
			p.noLabel = append(p.noLabel, sym)
		} else if !inAll.Contains(sym) {
			p.someLabels = append(p.someLabels, sym)
		}
	}
	p.codes = input.Symbols()
	w := 1
	for w <= int(p.codes[len(p.codes)-1]) {
		w <<= 1
	}
	p.pastWidth = w
	return p
}

// restoreDiff restores cp into a simulator and an engine execution of
// the same machine, feeds codes through both, drains ε-moves, and
// fails t on any observable difference: errors, FeedAll's answer,
// counters, reports, TOS, stack height, state, and the re-taken
// checkpoint's bytes.
func restoreDiff(t testing.TB, m *core.HDPDA, prog *engine.Program, cp *core.Checkpoint, codes []core.Symbol, depth int, collect bool) {
	t.Helper()
	sim := core.NewExecution(m, core.ExecOptions{StackDepth: depth, CollectReports: collect})
	eng := engine.NewExec(prog, engine.Options{StackDepth: depth, CollectReports: collect})
	ctx := func() string {
		return m.Name + " stack " + string(bytesOf(cp.Stack)) + " codes " + string(bytesOf(codes))
	}
	serr, eerr := sim.Restore(cp), eng.Restore(cp)
	if errString(eerr) != errString(serr) {
		t.Fatalf("%s: Restore: engine %q, sim %q", ctx(), errString(eerr), errString(serr))
	}
	if serr != nil {
		return
	}
	sfed, sjam, serr := sim.FeedAll(codes)
	efed, ejam, eerr := eng.FeedAll(codes)
	if efed != sfed || ejam != sjam || errString(eerr) != errString(serr) {
		t.Fatalf("%s: FeedAll: engine (%d, %v, %q), sim (%d, %v, %q)",
			ctx(), efed, ejam, errString(eerr), sfed, sjam, errString(serr))
	}
	if serr == nil && !sjam {
		sn, serr := sim.DrainEpsilon()
		en, eerr := eng.DrainEpsilon()
		if en != sn || errString(eerr) != errString(serr) {
			t.Fatalf("%s: DrainEpsilon: engine (%d, %q), sim (%d, %q)", ctx(), en, errString(eerr), sn, errString(serr))
		}
	}
	sameState(t, ctx(), sim, eng)
}

// sameState fails t unless the engine execution is in the simulator's
// configuration: every counter, reports, TOS, stack height, state,
// accept and the checkpoint's bytes.
func sameState(t testing.TB, ctx string, sim *core.Execution, eng *engine.Exec) {
	t.Helper()
	if !reflect.DeepEqual(eng.Result(), sim.Result()) {
		t.Fatalf("%s: result\n got %+v\nwant %+v", ctx, eng.Result(), sim.Result())
	}
	if eng.TOS() != sim.TOS() || eng.StackLen() != sim.StackLen() ||
		eng.Current() != sim.Current() || eng.InAccept() != sim.InAccept() {
		t.Fatalf("%s: engine TOS %#02x len %d state %d accept %v, sim TOS %#02x len %d state %d accept %v", ctx,
			eng.TOS(), eng.StackLen(), eng.Current(), eng.InAccept(),
			sim.TOS(), sim.StackLen(), sim.Current(), sim.InAccept())
	}
	var scp, ecp core.Checkpoint
	sim.Checkpoint(&scp)
	eng.Checkpoint(&ecp)
	sb, serr := scp.MarshalBinary()
	eb, eerr := ecp.MarshalBinary()
	if serr != nil || eerr != nil || !bytes.Equal(eb, sb) {
		t.Fatalf("%s: checkpoint differs (engine err %v, sim err %v)\n got %+v\nwant %+v", ctx, eerr, serr, ecp, scp)
	}
}

func bytesOf(syms []core.Symbol) []byte {
	b := make([]byte, len(syms))
	for i, s := range syms {
		b[i] = byte(s)
	}
	return b
}

// sealed builds a sealed checkpoint at state cur over stack.
func sealed(cur core.StateID, stack []core.Symbol) *core.Checkpoint {
	cp := &core.Checkpoint{Cur: cur, Stack: stack, Res: core.Result{FinalState: cur}}
	cp.Seal()
	return cp
}

// The candidate chain resolves on the stack class alone, including
// symbols only a restored stack can hold.
func TestEngineRestoreTwoCandidates(t *testing.T) {
	m := twoCandHDPDA()
	prog, err := engine.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	bot := core.BottomOfStack
	for _, tc := range []struct {
		stack []core.Symbol
		codes string
	}{
		{[]core.Symbol{bot, tcX}, "ae"},   // chain → popX
		{[]core.Symbol{bot, tcY}, "ae"},   // chain → popY
		{[]core.Symbol{bot, 3}, "ae"},     // never pushed, popX's label
		{[]core.Symbol{bot, 5}, "ae"},     // never pushed, popY's label
		{[]core.Symbol{bot, 7}, "a"},      // in pushY's label only: jam
		{[]core.Symbol{bot, 7}, "yae"},    // …but pushY fires over it
		{[]core.Symbol{bot, 200}, "x"},    // in no label: jam
		{[]core.Symbol{bot, 200}, "a"},    // chain exhausted: jam
		{[]core.Symbol{bot, 9}, "e"},      // ε-pop on 9, then end
		{[]core.Symbol{bot, 9, 9}, "e"},   // ε-chain of two pops
		{[]core.Symbol{200}, "e"},         // no ⊥ at the bottom
		{[]core.Symbol{9}, "e"},           // ε-pop of the only entry: underflow
		{[]core.Symbol{bot}, "xxxxxxx"},   // overflow at depth 6
		{[]core.Symbol{bot}, "xa\xc8"},    // code past the input width
		{[]core.Symbol{bot}, "\x80"},      // first code past the width
		{[]core.Symbol{bot, tcX}, "\xff"}, // last code
		{[]core.Symbol{bot, tcX}, "\xe1"}, // 'a'+128: aliases the next row's 'a' slot
		{nil, "a"},                        // empty stack: refused
	} {
		for _, cur := range []core.StateID{0, 3} {
			for _, collect := range []bool{false, true} {
				restoreDiff(t, m, prog, sealed(cur, tc.stack), core.BytesToSymbols([]byte(tc.codes)), 0, collect)
			}
		}
	}
	e := engine.NewExec(prog, engine.Options{})
	if err := e.Restore(sealed(0, nil)); !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("empty-stack Restore = %v, want ErrCheckpointCorrupt", err)
	}
}

// Random restored stacks and code runs over every test machine.
func TestEngineRestoreDifferential(t *testing.T) {
	machines := []*core.HDPDA{twoCandHDPDA(), core.PalindromeHDPDA()}
	for _, l := range append(lang.All(), lang.MiniC()) {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, cm.Machine)
	}
	rng := rand.New(rand.NewSource(17))
	for _, m := range machines {
		prog, err := engine.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		p := poolsOf(m)
		stackPools := [][]core.Symbol{p.pushed, p.noLabel, p.someLabels, p.neverPushed}
		pick := func(pool []core.Symbol) core.Symbol {
			if len(pool) == 0 {
				return core.Symbol(rng.Intn(256))
			}
			return pool[rng.Intn(len(pool))]
		}
		for trial := 0; trial < 300; trial++ {
			stack := []core.Symbol{core.BottomOfStack}
			if rng.Intn(8) == 0 {
				stack[0] = pick(stackPools[rng.Intn(len(stackPools))])
			}
			for n := rng.Intn(6); n > 0; n-- {
				stack = append(stack, pick(stackPools[rng.Intn(len(stackPools))]))
			}
			codes := make([]core.Symbol, rng.Intn(10))
			for i := range codes {
				switch {
				case rng.Intn(6) > 0:
					codes[i] = pick(p.codes)
				case p.pastWidth < 256:
					// A code the machine reads plus a multiple of the
					// width aliases a live slot of a later row.
					c := int(pick(p.codes)) + p.pastWidth*(1+rng.Intn(256/p.pastWidth))
					codes[i] = core.Symbol(min(c, 255))
				default:
					codes[i] = core.Symbol(rng.Intn(256))
				}
			}
			cur := core.StateID(rng.Intn(len(m.States)))
			depth := []int{0, 3, 8}[rng.Intn(3)]
			restoreDiff(t, m, prog, sealed(cur, stack), codes, depth, trial%2 == 0)
		}
	}
}
