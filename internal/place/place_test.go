package place

import (
	"fmt"
	"hash/fnv"
	"testing"

	"aspen/internal/compile"
	"aspen/internal/core"
	"aspen/internal/grammar"
	"aspen/internal/lang"
)

func coolMachine(t *testing.T) *core.HDPDA {
	t.Helper()
	cm, err := lang.Cool().Compile(compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	return cm.Machine
}

func TestPartitionCapacityRespected(t *testing.T) {
	m := coolMachine(t)
	for _, cap_ := range []int{64, 128, 256} {
		p, err := Partition(m, Options{BankStates: cap_})
		if err != nil {
			t.Fatal(err)
		}
		loads := make([]int, p.NumBanks)
		for _, b := range p.BankOf {
			if b < 0 || b >= p.NumBanks {
				t.Fatalf("bank %d out of range", b)
			}
			loads[b]++
		}
		for i, l := range loads {
			if l > cap_ {
				t.Errorf("cap %d: bank %d has %d states", cap_, i, l)
			}
		}
		want := (m.NumStates() + cap_ - 1) / cap_
		if p.NumBanks != want {
			t.Errorf("cap %d: %d banks, want %d", cap_, p.NumBanks, want)
		}
	}
}

func TestPartitionBeatsRandom(t *testing.T) {
	m := coolMachine(t)
	good, err := Partition(m, Options{BankStates: 256})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Partition(m, Options{BankStates: 256, Random: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gs, bs := Evaluate(m, good), Evaluate(m, bad)
	if gs.CutEdges+gs.LocalEdges != bs.CutEdges+bs.LocalEdges {
		t.Fatal("edge totals differ")
	}
	if gs.CutEdges >= bs.CutEdges {
		t.Errorf("partitioned cut %d !< random %d", gs.CutEdges, bs.CutEdges)
	}
}

func TestSingleBankWhenFits(t *testing.T) {
	m := core.PalindromeHDPDA()
	p, err := Partition(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBanks != 1 {
		t.Errorf("banks = %d", p.NumBanks)
	}
	s := Evaluate(m, p)
	if s.CutEdges != 0 || s.LocalEdges != m.CountEdges() {
		t.Errorf("stats = %+v", s)
	}
}

func TestPartitionSmallCapacityStress(t *testing.T) {
	// Tiny banks force many cuts but must still respect capacity and
	// cover every state exactly once.
	cm, err := compile.FromGrammar(grammar.ArithGrammar(), compile.OptAll)
	if err != nil {
		t.Fatal(err)
	}
	m := cm.Machine
	p, err := Partition(m, Options{BankStates: 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, p.NumBanks)
	for _, b := range p.BankOf {
		seen[b]++
	}
	total := 0
	for _, c := range seen {
		if c > 4 {
			t.Errorf("bank overloaded: %d", c)
		}
		total += c
	}
	if total != m.NumStates() {
		t.Errorf("covered %d of %d states", total, m.NumStates())
	}
}

func TestBadCapacity(t *testing.T) {
	if _, err := Partition(core.PalindromeHDPDA(), Options{BankStates: -1}); err == nil {
		t.Error("negative capacity should error")
	}
}

// TestPartitionDeadBanks pins re-placement onto a degraded fabric: banks
// marked dead receive zero states, placement spills past them, and the
// resulting placement is as good as one on a fabric that simply starts
// at the first live bank.
func TestPartitionDeadBanks(t *testing.T) {
	m := coolMachine(t)
	for _, random := range []bool{false, true} {
		dead := []bool{true, false, true} // banks 0 and 2 are gone
		p, err := Partition(m, Options{BankStates: 64, Random: random, DeadBanks: dead})
		if err != nil {
			t.Fatal(err)
		}
		loads := make([]int, p.NumBanks)
		for s, b := range p.BankOf {
			if b < 0 || b >= p.NumBanks {
				t.Fatalf("random=%v: state %d in bank %d, out of range", random, s, b)
			}
			if b < len(dead) && dead[b] {
				t.Fatalf("random=%v: state %d placed in dead bank %d", random, s, b)
			}
			loads[b]++
		}
		for b, l := range loads {
			if l > 64 {
				t.Errorf("random=%v: bank %d has %d states, capacity 64", random, b, l)
			}
		}
		// Live-bank count must still cover the machine; no extra spill.
		live := 0
		for b := 0; b < p.NumBanks; b++ {
			if !(b < len(dead) && dead[b]) {
				live++
			}
		}
		want := (m.NumStates() + 63) / 64
		if live != want {
			t.Errorf("random=%v: %d live banks used, want %d", random, live, want)
		}
		st := Evaluate(m, p)
		if st.LocalEdges+st.CutEdges == 0 {
			t.Errorf("random=%v: empty cut statistics", random)
		}
	}
}

// A fully-specified healthy fabric behaves exactly as before: DeadBanks
// of all-false is a no-op.
func TestPartitionNoDeadBanksUnchanged(t *testing.T) {
	m := coolMachine(t)
	base, err := Partition(m, Options{BankStates: 64})
	if err != nil {
		t.Fatal(err)
	}
	masked, err := Partition(m, Options{BankStates: 64, DeadBanks: make([]bool, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumBanks != masked.NumBanks {
		t.Fatalf("bank count changed: %d vs %d", base.NumBanks, masked.NumBanks)
	}
	for s := range base.BankOf {
		if base.BankOf[s] != masked.BankOf[s] {
			t.Fatalf("state %d moved: %d vs %d", s, base.BankOf[s], masked.BankOf[s])
		}
	}
}

// TestBuiltinPlacementsPinned pins the built-in machines' placements
// at two bank sizes. Placement is deterministic by construction (see
// refine's tie-break), so a faster Partition must reproduce it exactly.
func TestBuiltinPlacementsPinned(t *testing.T) {
	want := map[string][2]uint64{ // BankStates 256, 64
		"Cool":  {0x654b9896aee4b775, 0x6eaafb263ae18cab},
		"DOT":   {0xa39b86b2035f75e5, 0x552c779a0f9275e1},
		"JSON":  {0x04205f5f157646e5, 0x2c400377866b6a4c},
		"XML":   {0x0304306530441559, 0xf466ab2a78485072},
		"MiniC": {0x363288b66edf33d5, 0xfb54ecf562826abe},
	}
	for _, l := range append(lang.All(), lang.MiniC()) {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			t.Fatal(err)
		}
		for i, bs := range []int{256, 64} {
			p, err := Partition(cm.Machine, Options{BankStates: bs})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, b := range p.BankOf {
				fmt.Fprintf(h, "%d,", b)
			}
			if got := h.Sum64(); got != want[l.Name][i] {
				t.Errorf("%s at %d states per bank: BankOf digest %016x, want %016x", l.Name, bs, got, want[l.Name][i])
			}
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	for _, l := range []*lang.Language{lang.Cool(), lang.MiniC()} {
		cm, err := l.Compile(compile.OptAll)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(l.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Partition(cm.Machine, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
