package main

import (
	"bytes"
	"testing"

	"aspen/internal/xmlgen"
)

// The generators must be pure functions of the seed, must move with it,
// and must only call a document valid when the simulator accepts it.
func TestWorkloadDocuments(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := buildWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := buildWorkload(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.docs) != len(b.docs) {
				t.Fatalf("same seed: %d vs %d documents", len(a.docs), len(b.docs))
			}
			differs := len(a.docs) != len(c.docs)
			invalid := 0
			for i := range a.docs {
				if !bytes.Equal(a.docs[i].data, b.docs[i].data) || a.docs[i].grammar != b.docs[i].grammar {
					t.Fatalf("same seed: document %d differs", i)
				}
				if i < len(c.docs) && !bytes.Equal(a.docs[i].data, c.docs[i].data) {
					differs = true
				}
				want := a.wants[i]
				if a.docs[i].valid != want.Accepted {
					t.Errorf("document %d (%s, %s): valid=%v but the simulator says accepted=%v (%s)",
						i, a.docs[i].grammar, a.docs[i].kind, a.docs[i].valid, want.Accepted, want.Error)
				}
				if !a.docs[i].valid {
					invalid++
				}
			}
			if !differs {
				t.Error("another seed produced the same documents")
			}
			if name == "small-mixed" && (invalid == 0 || invalid > len(a.docs)/10) {
				t.Errorf("%d of %d documents invalid, want about %.0f%%", invalid, len(a.docs), invalidShare*100)
			}
			if name != "small-mixed" && invalid != 0 {
				t.Errorf("%d invalid documents in a workload of valid ones", invalid)
			}
		})
	}
}

// The small-mixed pool covers every grammar and the size range.
func TestSmallMixedCoverage(t *testing.T) {
	w, err := buildWorkload("small-mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]int{}
	for _, d := range w.docs {
		per[d.grammar]++
		if d.valid && (len(d.data) < smallMin || len(d.data) > smallMax+1024) {
			t.Errorf("%s document of %d bytes outside %d–%d (+ one element)", d.grammar, len(d.data), smallMin, smallMax)
		}
	}
	for _, g := range allGrammars {
		if per[g] == 0 {
			t.Errorf("no %s documents", g)
		}
	}
}

// xmlSpecs must stay the corpus xmlgen ships, in its order.
func TestXMLSpecsMirrorCorpus(t *testing.T) {
	corpus := xmlgen.Corpus(512)
	if len(corpus) != len(xmlSpecs) {
		t.Fatalf("xmlgen has %d specs, perfbench %d", len(corpus), len(xmlSpecs))
	}
	groups := map[string]int{}
	for i, d := range corpus {
		if d.Name != xmlSpecs[i].name {
			t.Errorf("spec %d: xmlgen %q, perfbench %q", i, d.Name, xmlSpecs[i].name)
		}
		groups[xmlgen.Group(xmlSpecs[i].density)]++
	}
	if groups["Low"] == 0 || groups["Medium"] == 0 || groups["High"] == 0 {
		t.Errorf("density groups not all covered: %v", groups)
	}
}

// After a lexer error the server's counters depend on where its reads
// split the body; every split before the offending byte must pass the
// check. Seed 107 holds a JSON document whose error lies past the first
// 4 KiB the HTTP client writes.
func TestErrorAnswersAcrossReadBoundaries(t *testing.T) {
	w, err := buildWorkload("small-mixed", 107)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(w.grammars)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for i, d := range w.docs {
		want := w.wants[i]
		off := want.errorOffset()
		if want.Error == "" || off == 0 {
			continue
		}
		if want.fedMax != want.outcome {
			split++
		}
		for b := 1; b <= off; b += 1 + off/50 {
			got, err := o.run(d.grammar, d.data[:b], d.data[b:])
			if err != nil {
				t.Fatal(err)
			}
			if diff := want.diff(got); diff != "" {
				t.Errorf("document %d split at %d: %s", i, b, diff)
			}
		}
	}
	if split == 0 {
		t.Error("no document whose counters depend on the split")
	}
}
