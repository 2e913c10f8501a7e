// Package place maps hDPDA states onto ASPEN's banked SRAM arrays — the
// role the METIS graph partitioner plays in the paper (§IV-B, §V-A).
// Each bank holds at most 256 states; transitions within a bank route
// through the dense local crossbar (L-switch) while transitions between
// banks traverse the sparser global crossbar (G-switch), so the
// partitioner minimizes cut edges. The algorithm is greedy BFS region
// growing followed by Kernighan–Lin-style boundary refinement, which
// exercises the same local/global connectivity constraints as METIS.
package place

import (
	"fmt"
	"math/rand"

	"aspen/internal/core"
)

// DefaultBankStates is the per-bank state capacity (one 256×256 SRAM
// array column per state).
const DefaultBankStates = 256

// Options configures partitioning.
type Options struct {
	// BankStates is the per-bank capacity (default 256).
	BankStates int
	// Random skips region growing and refinement, assigning states to
	// banks round-robin in shuffled order — the ablation baseline.
	Random bool
	// Seed drives the Random shuffle.
	Seed int64
	// RefinePasses bounds KL refinement sweeps (default 8).
	RefinePasses int
	// DeadBanks marks banks that must receive no states — the fault
	// model's permanent kills. Placement spills past them onto higher
	// bank indices, modeling re-placement onto the surviving arrays;
	// indices beyond len(DeadBanks) are live.
	DeadBanks []bool
}

// dead reports whether bank b is marked unusable.
func (o Options) dead(b int) bool {
	return b < len(o.DeadBanks) && o.DeadBanks[b]
}

// Placement is a state→bank assignment.
type Placement struct {
	BankOf     []int
	NumBanks   int
	BankStates int
}

// Stats summarizes placement quality.
type Stats struct {
	NumBanks   int
	CutEdges   int // inter-bank transitions (G-switch traffic)
	LocalEdges int // intra-bank transitions (L-switch traffic)
}

// Partition places m's states into banks.
func Partition(m *core.HDPDA, opts Options) (*Placement, error) {
	cap_ := opts.BankStates
	if cap_ == 0 {
		cap_ = DefaultBankStates
	}
	if cap_ < 1 {
		return nil, fmt.Errorf("place: bank capacity %d", cap_)
	}
	n := m.NumStates()
	// The bank count covers n states of live capacity, spilling past any
	// dead banks.
	numBanks, live := 0, 0
	for live*cap_ < n {
		if !opts.dead(numBanks) {
			live++
		}
		numBanks++
	}
	p := &Placement{
		BankOf:     make([]int, n),
		NumBanks:   numBanks,
		BankStates: cap_,
	}
	if n == 0 {
		return p, nil
	}
	capOf := func(b int) int {
		if opts.dead(b) {
			return 0
		}
		return cap_
	}

	// Undirected adjacency for locality decisions.
	adj := make([][]int32, n)
	for i := range m.States {
		for _, t := range m.States[i].Succ {
			if int32(i) != int32(t) {
				adj[i] = append(adj[i], int32(t))
				adj[t] = append(adj[t], int32(i))
			}
		}
	}

	if opts.Random {
		liveBanks := make([]int, 0, numBanks)
		for b := 0; b < numBanks; b++ {
			if !opts.dead(b) {
				liveBanks = append(liveBanks, b)
			}
		}
		r := rand.New(rand.NewSource(opts.Seed))
		order := r.Perm(n)
		for rank, s := range order {
			p.BankOf[s] = liveBanks[rank%len(liveBanks)]
		}
		return p, nil
	}

	// Greedy BFS region growing from the start state: fill each bank
	// with a connected region before opening the next.
	for i := range p.BankOf {
		p.BankOf[i] = -1
	}
	load := make([]int, numBanks)
	bank := 0
	for opts.dead(bank) {
		bank++ // the start state anchors in the first live bank
	}
	var frontier []int32
	assigned := 0
	assign := func(s int32) {
		p.BankOf[s] = bank
		load[bank]++
		assigned++
		frontier = append(frontier, s)
	}
	assign(int32(m.Start))
	next := 0
	for assigned < n {
		if load[bank] >= capOf(bank) {
			bank++
			for opts.dead(bank) {
				bank++
			}
			frontier = frontier[:0]
		}
		// Prefer a neighbor of the current region; fall back to the
		// next unassigned state.
		var pick int32 = -1
		for len(frontier) > 0 && pick < 0 {
			f := frontier[0]
			found := false
			for _, t := range adj[f] {
				if p.BankOf[t] < 0 {
					pick = t
					found = true
					break
				}
			}
			if !found {
				frontier = frontier[1:]
			}
		}
		if pick < 0 {
			for p.BankOf[next] >= 0 {
				next++
			}
			pick = int32(next)
		}
		assign(pick)
	}

	refine(m, p, load, opts)
	return p, nil
}

// refine runs bounded KL-style passes: move a boundary state to a
// neighboring bank when that strictly reduces the cut and respects
// capacity.
func refine(m *core.HDPDA, p *Placement, load []int, opts Options) {
	passes := opts.RefinePasses
	if passes == 0 {
		passes = 8
	}
	n := m.NumStates()
	// Directed edges matter equally in both directions for cut size, so
	// gather per-state neighbor banks from both edge directions.
	adj := make([][]int32, n)
	for i := range m.States {
		for _, t := range m.States[i].Succ {
			if int32(i) != int32(t) {
				adj[i] = append(adj[i], int32(t))
				adj[t] = append(adj[t], int32(i))
			}
		}
	}
	// counts tallies one state's neighbors per bank; banks lists the
	// tallied banks in first-seen order, which fixes the tie-break in the
	// scan below, and resets counts for the next state.
	counts := make([]int, p.NumBanks)
	var banks []int
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for s := 0; s < n; s++ {
			if s == int(m.Start) {
				continue // keep the start anchored in its first live bank
			}
			cur := p.BankOf[s]
			banks = banks[:0]
			for _, t := range adj[s] {
				b := p.BankOf[t]
				if counts[b] == 0 {
					banks = append(banks, b)
				}
				counts[b]++
			}
			best, bestGain := cur, 0
			for _, b := range banks {
				if b == cur || load[b] >= p.BankStates || opts.dead(b) {
					continue
				}
				gain := counts[b] - counts[cur]
				if gain > bestGain {
					best, bestGain = b, gain
				}
			}
			for _, b := range banks {
				counts[b] = 0
			}
			if best != cur {
				load[cur]--
				load[best]++
				p.BankOf[s] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// Evaluate computes cut statistics for a placement.
func Evaluate(m *core.HDPDA, p *Placement) Stats {
	st := Stats{NumBanks: p.NumBanks}
	for i := range m.States {
		for _, t := range m.States[i].Succ {
			if p.BankOf[i] == p.BankOf[t] {
				st.LocalEdges++
			} else {
				st.CutEdges++
			}
		}
	}
	return st
}
