package compile_test

import (
	"fmt"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/lang"
)

// machineDump renders everything behaviorally significant about a
// compiled machine, state by state.
func machineDump(cm *compile.Compiled) string {
	m := cm.Machine
	out := fmt.Sprintf("start=%d depth=%d in=%v stk=%v\n", m.Start, m.StackDepth, m.InputAlphabet, m.StackAlphabet)
	for i := range m.States {
		st := &m.States[i]
		out += fmt.Sprintf("%d eps=%v in=%v stk=%v op=%+v acc=%v rep=%d succ=%v\n",
			st.ID, st.Epsilon, st.Input, st.Stack, st.Op, st.Accept, st.Report, st.Succ)
	}
	return out
}

// TestCompileDeterministic pins that compiling the same grammar twice
// yields bit-identical machines — same state numbering, same edges,
// same fingerprint. Durable checkpoints carry raw state IDs across
// process restarts, so any map-order dependence in state assignment
// would make a recompiled machine silently incompatible with its own
// snapshots (the restored execution lands on an arbitrary state and
// jams). Go randomizes map iteration per range statement, so two
// in-process compiles are enough to catch a regression.
func TestCompileDeterministic(t *testing.T) {
	for _, l := range lang.All() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			a, err := l.Compile(compile.OptAll)
			if err != nil {
				t.Fatal(err)
			}
			b, err := l.Compile(compile.OptAll)
			if err != nil {
				t.Fatal(err)
			}
			if da, db := machineDump(a), machineDump(b); da != db {
				t.Fatalf("two compiles of %s differ:\n--- first\n%s\n--- second\n%s", l.Name, da, db)
			}
			if fa, fb := a.Machine.Fingerprint(), b.Machine.Fingerprint(); fa != fb {
				t.Fatalf("fingerprints differ: %016x vs %016x", fa, fb)
			}
		})
	}
}

// TestBuiltinFingerprints pins the built-in machines' fingerprints.
// Durable checkpoints and fleet handoffs carry the fingerprint of the
// machine that took them and are refused by any other, so a change to
// any compile stage — the LR construction included — that renumbers
// states orphans every checkpoint a running fleet holds. Comparing two
// compiles from one build, as TestCompileDeterministic does, cannot see
// that.
func TestBuiltinFingerprints(t *testing.T) {
	want := map[string]uint64{
		"Cool":  0xcdbd2f25addd1e31,
		"DOT":   0x41bf3477a63a598d,
		"JSON":  0x09def3133b8878a1,
		"XML":   0xd195550606e49822,
		"MiniC": 0xf6f6328e327adb68,
	}
	for _, l := range append(lang.All(), lang.MiniC()) {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		if got := cm.Machine.Fingerprint(); got != want[l.Name] {
			t.Errorf("%s: fingerprint %016x, want %016x", l.Name, got, want[l.Name])
		}
	}
}
