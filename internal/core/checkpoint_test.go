package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// runOutcome is the comparable trace of one run: the full Result plus
// the terminal error, which together are everything an observer of the
// machine can see.
type runOutcome struct {
	res Result
	err string
}

func outcomeOf(res Result, err error) runOutcome {
	o := runOutcome{res: res}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// drive feeds input through e with the Run protocol (drain ε, feed,
// final drain, accept check), stopping after at most maxSyms symbols.
// It returns the number of symbols consumed and whether the run ended
// (jam, error, or input exhausted with the final drain done).
func drive(e *Execution, input []Symbol, maxSyms int) (int, bool, error) {
	fed := 0
	for _, sym := range input {
		if fed >= maxSyms {
			return fed, false, nil
		}
		if _, err := e.DrainEpsilon(); err != nil {
			return fed, true, err
		}
		ok, err := e.Feed(sym)
		if err != nil {
			return fed, true, err
		}
		if !ok {
			e.res.Jammed = true
			return fed, true, nil
		}
		fed++
	}
	if _, err := e.DrainEpsilon(); err != nil {
		return fed, true, err
	}
	e.res.Accepted = e.InAccept()
	return fed, true, nil
}

// finish drives the remaining input to completion and snapshots the
// outcome.
func finish(e *Execution, rest []Symbol) runOutcome {
	_, _, err := drive(e, rest, len(rest)+1)
	return outcomeOf(e.Result(), err)
}

// checkReplay asserts the replay-equivalence property for one
// (machine, input, checkpoint point) triple: restoring a mid-run
// checkpoint and re-feeding the remaining symbols must reproduce the
// uninterrupted run's verdict, statistics, and reports exactly —
// whether the restore target is a fresh execution or the original one
// after it diverged (the recovery path: corrupt, roll back, replay).
func checkReplay(t *testing.T, m *HDPDA, input []Symbol, cpAt int) {
	t.Helper()
	opts := ExecOptions{CollectReports: true}

	// Reference: uninterrupted run.
	ref := NewExecution(m, opts)
	want := finish(ref, input)

	// Run to the checkpoint point.
	e := NewExecution(m, opts)
	fed, ended, err := drive(e, input, cpAt)
	if ended {
		// The run terminated before the checkpoint point (jam, machine
		// fault, or short input): the triple is vacuous, but the partial
		// runs must still agree.
		if got := outcomeOf(e.Result(), err); !reflect.DeepEqual(got, want) {
			t.Fatalf("pre-checkpoint termination diverged from reference:\n got %+v\nwant %+v", got, want)
		}
		return
	}
	var cp Checkpoint
	e.Checkpoint(&cp)
	rest := input[fed:]

	// Continue the original execution to the end: this is the
	// uninterrupted path and must match the reference.
	if got := finish(e, rest); !reflect.DeepEqual(got, want) {
		t.Fatalf("uninterrupted run diverged from reference:\n got %+v\nwant %+v", got, want)
	}

	// Restore into a fresh execution and replay.
	fresh := NewExecution(m, opts)
	if err := fresh.Restore(&cp); err != nil {
		t.Fatalf("restore into fresh execution rejected: %v", err)
	}
	if got := finish(fresh, rest); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore into fresh execution diverged:\n got %+v\nwant %+v", got, want)
	}

	// Roll the original (now-completed, i.e. maximally diverged)
	// execution back to the checkpoint and replay — the recovery path.
	if err := e.Restore(&cp); err != nil {
		t.Fatalf("rollback restore rejected: %v", err)
	}
	if got := finish(e, rest); !reflect.DeepEqual(got, want) {
		t.Fatalf("rollback-and-replay diverged:\n got %+v\nwant %+v", got, want)
	}
}

// randomMachine generates a small valid hDPDA by construction: states
// get random labels/ops, and successor lists are grown greedily so no
// two successors' (input, stack) labels overlap — exactly the machine's
// determinism condition — with ε-successors kept exclusive.
func randomMachine(r *rand.Rand) *HDPDA {
	inputs := []Symbol{'a', 'b', 'c'}
	stackSyms := []Symbol{'X', 'Y'}
	n := 3 + r.Intn(6)
	m := &HDPDA{Name: "rand"}
	m.States = make([]State, n)
	for i := range m.States {
		st := State{ID: StateID(i), Epsilon: r.Float64() < 0.2}
		if !st.Epsilon {
			st.Input = NewSymbolSet(inputs[r.Intn(len(inputs))])
		}
		switch r.Intn(4) {
		case 0, 1:
			st.Stack = AllSymbols()
		case 2:
			st.Stack = NewSymbolSet(stackSyms[r.Intn(len(stackSyms))])
		default:
			st.Stack = NewSymbolSet(BottomOfStack)
		}
		switch r.Intn(5) {
		case 0:
			st.Op = StackOp{HasPush: true, Push: stackSyms[r.Intn(len(stackSyms))]}
		case 1:
			st.Op = StackOp{Pop: 1}
		case 2:
			st.Op = StackOp{Pop: 1, HasPush: true, Push: stackSyms[r.Intn(len(stackSyms))]}
		}
		st.Accept = r.Float64() < 0.3
		m.States[i] = st
	}
	compatible := func(a, b *State) bool {
		if !a.Stack.Intersects(b.Stack) {
			return true
		}
		if a.Epsilon || b.Epsilon {
			return false
		}
		return !a.Input.Intersects(b.Input)
	}
	for i := range m.States {
		perm := r.Perm(n)
		for _, cand := range perm {
			if len(m.States[i].Succ) >= 3 {
				break
			}
			ok := true
			for _, have := range m.States[i].Succ {
				if !compatible(&m.States[cand], &m.States[have]) {
					ok = false
					break
				}
			}
			if ok {
				m.States[i].Succ = append(m.States[i].Succ, StateID(cand))
			}
		}
	}
	return m
}

func randomInput(r *rand.Rand, n int) []Symbol {
	syms := []Symbol{'a', 'b', 'c'}
	out := make([]Symbol, n)
	for i := range out {
		out[i] = syms[r.Intn(len(syms))]
	}
	return out
}

// TestCheckpointReplayEquivalence is the acceptance property: for
// randomized machines, inputs and checkpoint points, restore-and-resume
// is indistinguishable from uninterrupted execution.
func TestCheckpointReplayEquivalence(t *testing.T) {
	const seed = 0x5eed_a5e7
	r := rand.New(rand.NewSource(seed))
	t.Logf("seed %#x", seed)

	// Hand-built machine with known deep-stack behaviour.
	pal := PalindromeHDPDA()
	for trial := 0; trial < 40; trial++ {
		half := randomInput(r, 1+r.Intn(12))
		input := make([]Symbol, 0, 2*len(half)+1)
		input = append(input, half...)
		input = append(input, PalCenter)
		for i := len(half) - 1; i >= 0; i-- {
			input = append(input, half[i])
		}
		if r.Intn(3) == 0 && len(input) > 2 {
			input[r.Intn(len(input))] = 'b' // sometimes not a palindrome
		}
		checkReplay(t, pal, input, r.Intn(len(input)+1))
	}

	// Randomized machines.
	for mi := 0; mi < 25; mi++ {
		m := randomMachine(r)
		if err := m.Validate(); err != nil {
			t.Fatalf("generated machine invalid (generator bug): %v", err)
		}
		for trial := 0; trial < 8; trial++ {
			input := randomInput(r, 1+r.Intn(24))
			checkReplay(t, m, input, r.Intn(len(input)+1))
		}
	}
}

// TestCheckpointBufferReuse pins that a steady-state checkpoint/restore
// pair allocates nothing once its buffers are grown.
func TestCheckpointBufferReuse(t *testing.T) {
	m := PalindromeHDPDA()
	e := NewExecution(m, ExecOptions{})
	input := []Symbol{'0', '1', '0', 'c', '0', '1', '0'}
	var cp Checkpoint
	if _, _, err := drive(e, input[:3], 3); err != nil {
		t.Fatal(err)
	}
	e.Checkpoint(&cp)
	allocs := testing.AllocsPerRun(100, func() {
		e.Checkpoint(&cp)
		if err := e.Restore(&cp); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Checkpoint+Restore = %v allocs/op, want 0", allocs)
	}
}

// TestRestoreRefusesSealedGarbage pins that a checkpoint whose seal is
// intact but whose contents cannot be resumed — an empty stack, a state
// the machine lacks — is ErrCheckpointCorrupt and leaves the execution
// untouched.
func TestRestoreRefusesSealedGarbage(t *testing.T) {
	m := PalindromeHDPDA()
	e := NewExecution(m, ExecOptions{})
	if _, _, err := drive(e, []Symbol{'0', '1'}, 2); err != nil {
		t.Fatal(err)
	}
	var good Checkpoint
	e.Checkpoint(&good)
	for name, forge := range map[string]func(*Checkpoint){
		"empty stack":  func(c *Checkpoint) { c.Stack = c.Stack[:0] },
		"state range":  func(c *Checkpoint) { c.Cur = StateID(len(m.States)) },
		"negative cur": func(c *Checkpoint) { c.Cur = -1 },
	} {
		var bad Checkpoint
		e.Checkpoint(&bad)
		forge(&bad)
		bad.Seal()
		if err := e.Restore(&bad); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: Restore = %v, want ErrCheckpointCorrupt", name, err)
		}
		var after Checkpoint
		e.Checkpoint(&after)
		if after.Digest != good.Digest {
			t.Errorf("%s: refused Restore changed the execution", name)
		}
	}
}

// TestStepZeroAllocsFaultsDisabled pins the fault-injection acceptance
// criterion: a nil injector leaves the hot step path allocation-free
// (it costs exactly one nil check per activation).
func TestStepZeroAllocsFaultsDisabled(t *testing.T) {
	m := loopMachine()
	e := NewExecution(m, ExecOptions{Faults: nil})
	step := func() {
		e.Feed('a')
		e.StepEpsilon()
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("stepping with nil FaultInjector = %v allocs/op, want 0", allocs)
	}
}

// flipInjector deterministically corrupts the k-th activation.
type flipInjector struct {
	at    int
	to    StateID
	fired int
}

func (fi *flipInjector) Activation(step int, _ StateID, _ Symbol) (Fault, bool) {
	if step != fi.at {
		return NoFault, false
	}
	fi.fired++
	f := NoFault
	f.NewState = fi.to
	return f, true
}

// TestFaultInjectionCorruptsAndRecovers exercises the full recovery
// primitive at core level: a bit flip diverts the run, the injector's
// fired signal detects it, and rollback+replay (with the fault gone)
// reproduces the clean verdict.
func TestFaultInjectionCorruptsAndRecovers(t *testing.T) {
	m := PalindromeHDPDA()
	input := []Symbol{'0', '1', 'c', '1', '0'}

	clean := NewExecution(m, ExecOptions{CollectReports: true})
	want := finish(clean, input)
	if !want.res.Accepted {
		t.Fatalf("reference run should accept: %+v", want)
	}

	inj := &flipInjector{at: 4, to: 1}
	e := NewExecution(m, ExecOptions{CollectReports: true, Faults: inj})
	var cp Checkpoint
	fed, ended, err := drive(e, input, 2)
	if ended || err != nil {
		t.Fatalf("run ended early: fed=%d err=%v", fed, err)
	}
	e.Checkpoint(&cp)
	got := finish(e, input[fed:])
	if inj.fired == 0 {
		t.Fatal("injector never fired")
	}
	if reflect.DeepEqual(got, want) {
		t.Fatalf("injected fault did not corrupt the run (flip landed on the active state?): %+v", got)
	}

	// Recovery: disarm the fault (transient upsets don't repeat), roll
	// back, replay.
	inj.at = -1
	if err := e.Restore(&cp); err != nil {
		t.Fatalf("restore rejected: %v", err)
	}
	if got := finish(e, input[fed:]); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestKillFaultSurfacesError pins the permanent-loss path: a Kill fault
// aborts the run with ErrBankDead.
func TestKillFaultSurfacesError(t *testing.T) {
	m := PalindromeHDPDA()
	e := NewExecution(m, ExecOptions{Faults: killInjector{}})
	_, _, err := drive(e, []Symbol{'0', 'c', '0'}, 3)
	if err == nil || err != ErrBankDead {
		t.Fatalf("err = %v, want ErrBankDead", err)
	}
}

type killInjector struct{}

func (killInjector) Activation(int, StateID, Symbol) (Fault, bool) {
	f := NoFault
	f.Kill = true
	return f, true
}
